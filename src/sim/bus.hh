/**
 * @file
 * Bus: a shared bandwidth resource. A transfer occupies the bus
 * exclusively for setup + bytes/bandwidth; contending transfers queue in
 * FIFO order. Used for the Xpress memory bus, the EISA expansion bus,
 * mesh links, and the Ethernet side channel.
 */

#ifndef SHRIMP_SIM_BUS_HH
#define SHRIMP_SIM_BUS_HH

#include <cstddef>
#include <string>

#include "base/stats.hh"
#include "base/trace.hh"
#include "base/types.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace shrimp::sim
{

class Bus
{
  public:
    /**
     * @param queue the event queue driving time
     * @param mb_per_sec bus bandwidth, 10^6 bytes per second
     * @param name stats group name
     */
    Bus(EventQueue &queue, double mb_per_sec, std::string name = "bus");

    /**
     * Occupy the bus for one transaction of @p bytes plus a fixed
     * @p setup time; completes when the transaction is done.
     */
    Task<> transfer(std::size_t bytes, Tick setup = 0);

    /** Time one transaction of @p bytes would occupy the bus. */
    Tick occupancy(std::size_t bytes, Tick setup = 0) const;

    /**
     * Bracket one transaction of @p bytes that is serialized outside
     * the bus (the mesh's link ledger grants links itself instead of
     * queueing on transfer()'s lock): startTransfer() at the grant,
     * finishTransfer() once it has occupied the bus for @p occupied
     * ticks. The pair checks, traces (the "xfer" span on this bus's
     * track) and counts the transaction exactly as transfer() does.
     */
    void startTransfer(std::size_t bytes);
    void finishTransfer(std::size_t bytes, Tick occupied);

    double bandwidth() const { return bw_; }
    Tick busyTime() const { return busyTime_; }
    std::uint64_t bytesMoved() const { return bytes_; }
    std::uint64_t transactions() const { return transactions_; }
    stats::Group &stats() { return stats_; }

  private:
    EventQueue &queue_;
    double bw_;
    std::uint64_t bps_; //!< bw_ in whole bytes/s; see units::transferTime
    Semaphore lock_;
    Tick busyTime_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t transactions_ = 0;
    stats::Group stats_;
    trace::TrackId track_;
    // Hot path: stat lookups are hoisted to construction (the returned
    // references are stable), so transfer() pays plain increments.
    stats::Counter &statTransactions_;
    stats::Counter &statBytes_;
    stats::Counter &statOccupancyNs_;
    stats::Distribution &statXferBytes_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_BUS_HH
