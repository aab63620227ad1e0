#include "sim/bus.hh"

#include "base/logging.hh"
#include "check/check.hh"
#include "sim/profile.hh"

namespace shrimp::sim
{

Bus::Bus(EventQueue &queue, double mb_per_sec, std::string name)
    : queue_(queue), bw_(mb_per_sec), bps_(units::bytesPerSec(mb_per_sec)),
      lock_(queue, 1),
      stats_(std::move(name)), track_(trace::track(stats_.name())),
      statTransactions_(stats_.counter("transactions")),
      statBytes_(stats_.counter("bytes")),
      statOccupancyNs_(stats_.counter("occupancyNs")),
      statXferBytes_(stats_.distribution("xferBytes"))
{
    if (bw_ <= 0.0)
        fatal("bus bandwidth must be positive");
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onBusCreated(this));
}

Tick
Bus::occupancy(std::size_t bytes, Tick setup) const
{
    return setup + units::transferTime(bytes, bps_);
}

void
Bus::startTransfer([[maybe_unused]] std::size_t bytes)
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onBusTransferStart(this, bytes));
    if (trace::on())
        trace::Tracer::instance().begin(track_, "xfer", queue_.now());
}

void
Bus::finishTransfer(std::size_t bytes, Tick occupied)
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onBusTransferEnd(this, bytes));
    if (trace::on())
        trace::Tracer::instance().end(track_, "xfer", queue_.now());
    busyTime_ += occupied;
    bytes_ += bytes;
    ++transactions_;
    statTransactions_ += 1;
    statBytes_ += bytes;
    statOccupancyNs_ += occupied;
    statXferBytes_.sample(double(bytes));
}

Task<>
Bus::transfer(std::size_t bytes, Tick setup)
{
    // The queueing and occupancy events this coroutine schedules are
    // the bus's own cost, whoever initiated the transfer.
    profile::retag(profile::Subsys::Bus);
    co_await lock_.acquire();
    profile::retag(profile::Subsys::Bus);
    startTransfer(bytes);
    Tick t = occupancy(bytes, setup);
    // analyze: allow(suspend-under-exclusion) — this Delay IS the bus
    // occupancy being modeled; the lock is held exactly for its span.
    co_await Delay{queue_, t};
    finishTransfer(bytes, t);
    lock_.release();
}

} // namespace shrimp::sim
