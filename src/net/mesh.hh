/**
 * @file
 * Mesh: the Intel routing backplane — a 2-D mesh of iMRC routers with
 * deadlock-free, oblivious wormhole routing (dimension-ordered XY) that
 * preserves the order of packets from each sender to each receiver.
 * Node i sits at (i % width, i / width).
 *
 * Packets advance through a per-link occupancy ledger (DESIGN.md §13):
 * a busy bit plus a FIFO of waiting packets per directed link grants
 * link windows with plain arithmetic and one pooled event per hop — no
 * coroutine frames, no semaphore queues, no per-packet spawn
 * bookkeeping. Each hop is still one transaction on the link's
 * sim::Bus (Bus::startTransfer/finishTransfer), so the link's checker
 * hooks, "xfer" trace span and stats are the Bus's own. The golden
 * trace hashes and the MeshEngines digests in tests/test_net.cc were
 * recorded on the per-packet coroutine engine this replaced; matching
 * them pins every delivery tick and same-tick ordering.
 */

#ifndef SHRIMP_NET_MESH_HH
#define SHRIMP_NET_MESH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/config.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "net/packet.hh"
#include "net/router.hh"
#include "sim/simulator.hh"

namespace shrimp::net
{

class Mesh
{
  public:
    Mesh(sim::Simulator &sim, const MachineConfig &cfg);
    ~Mesh();

    int width() const { return width_; }
    int height() const { return height_; }
    int numNodes() const { return width_ * height_; }

    /** Grid coordinates of a node. */
    int xOf(NodeId n) const { return n % width_; }
    int yOf(NodeId n) const { return n / width_; }

    /** Neighbour of @p n in direction @p d; panics at a mesh edge. */
    NodeId neighbor(NodeId n, Dir d) const;

    /** Next output direction under XY routing from @p at toward @p dst. */
    Dir nextDir(NodeId at, NodeId dst) const;

    /** Number of router-to-router hops between two nodes. */
    int hops(NodeId a, NodeId b) const;

    /**
     * Inject a packet at its source router. Returns immediately; the
     * packet traverses the mesh asynchronously and is eventually placed
     * on the destination router's eject queue. Packets injected at the
     * same source toward the same destination stay in order.
     */
    void inject(Packet pkt);

    Router &router(NodeId n) { return *routers_.at(n); }

    std::uint64_t packetsDelivered() const { return delivered_; }

    /** Packets injected but not yet ejected (tests). */
    std::uint64_t packetsInFlight() const { return inflight_; }

  private:
    /**
     * Per-packet state while in the fabric, free-listed so steady
     * traffic allocates nothing. Scheduled hop events capture one
     * Flight pointer; the Flight owns the packet until ejection.
     */
    struct Flight
    {
        Packet pkt;
        NodeId cur = 0;     //!< router the packet is at / leaving
        Tick occ = 0;       //!< per-hop link occupancy (uniform links)
        int link = -1;      //!< directed-link index while on a link
        Flight *qnext = nullptr; //!< link waiter FIFO / free list
    };

    /**
     * One directed link's occupancy ledger: a busy bit plus a FIFO of
     * waiting flights, granted in arrival order — the link's stand-in
     * for Bus::transfer's semaphore.
     */
    struct LinkLedger
    {
        Flight *head = nullptr;
        Flight *tail = nullptr;
        bool busy = false;
    };

    // Start/finish one hop, hand the link to the next waiter, eject at
    // the destination.
    void startHop(Flight *f);
    void hopDone(Flight *f);
    void grantLink(Flight *f);
    void ejectFlight(Flight *f);

    Flight *allocFlight();
    void freeFlight(Flight *f);

    int linkIndex(NodeId at, Dir d) const { return int(at) * numDirs + int(d); }

    sim::Simulator &sim_;
    int width_;
    int height_;
    Tick hopLatency_;
    std::uint64_t linkBps_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t inflight_ = 0;

    // Precomputed XY route tables (built once in the ctor): next
    // direction and hop count per (at, dst) pair, neighbor per
    // (node, dir). 0xFF / -1 mark "at == dst" / mesh edges.
    std::vector<std::uint8_t> nextDirTbl_;
    std::vector<std::uint16_t> hopsTbl_;
    std::vector<std::int32_t> neighborTbl_;

    // Link ledgers and the flight pool.
    std::vector<LinkLedger> ledgers_;
    std::vector<std::unique_ptr<Flight>> flights_;
    Flight *freeFlights_ = nullptr;

    stats::Group stats_;
    std::vector<trace::TrackId> routerTracks_;
    // Per-packet path; stat lookups hoisted to construction.
    stats::Counter &statPacketsInjected_;
    stats::Counter &statBytesInjected_;
    stats::Counter &statPacketsDelivered_;
    stats::Distribution &statHops_;
};

} // namespace shrimp::net

#endif // SHRIMP_NET_MESH_HH
