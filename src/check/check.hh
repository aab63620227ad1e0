/**
 * @file
 * SimChecker: runtime invariant checking for the simulator.
 *
 * The paper's results rest on properties the SHRIMP prototype enforced
 * in hardware: deliberate-update packets deliver in order per mapping,
 * combined automatic-update packets carry byte-identical data, OPT
 * entries only ever address their mapped window, and the IPT gates every
 * delivery. Our reproduction additionally depends on the event queue
 * being tick-monotonic and schedule-order deterministic. SimChecker
 * turns violations of any of these into loud failures instead of
 * silently skewed figure numbers.
 *
 * The checker object itself is always compiled (so its logic is unit
 * testable in every build), but the hook call sites sprinkled through
 * sim/, nic/ and net/ are compiled only when the SHRIMP_CHECK CMake
 * option defines the SHRIMP_CHECK macro: a production build pays zero
 * cost, exactly like tracing. When compiled in, hooks are additionally
 * gated by the runtime on() flag so individual tests can pause checking.
 *
 * A violation is recorded and, by default, thrown as CheckError (a
 * PanicError subclass, so existing panic-expecting code sees it).
 * Tests switch to collect mode with setAbortOnViolation(false) and
 * inspect violations().
 */

#ifndef SHRIMP_CHECK_CHECK_HH
#define SHRIMP_CHECK_CHECK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace shrimp::net
{
// The checker only passes packets through by reference; the two hooks
// that inspect payloads are defined in net/check_packet.cc so this
// header (layer 1) never includes net/ (layer 3).
struct Packet;
} // namespace shrimp::net

namespace shrimp::check
{

namespace detail
{
extern bool gEnabled;
} // namespace detail

/** Fast gate compiled into every hook call site. */
inline bool on() { return detail::gEnabled; }

/** Pause/resume hook evaluation at runtime (hooks must be compiled in
 *  with SHRIMP_CHECK for this to matter). */
void setEnabled(bool enabled);

/** Thrown when an invariant is violated in abort mode. Derives from
 *  PanicError: a violation is an internal simulator bug. */
class CheckError : public PanicError
{
  public:
    explicit CheckError(const std::string &msg) : PanicError(msg) {}
};

class SimChecker
{
  public:
    /** The process-wide checker all hooks report into. */
    static SimChecker &instance();

    /** Abort mode (default): throw CheckError on the first violation.
     *  Collect mode: record violations for later inspection. */
    void setAbortOnViolation(bool abort_on_violation);

    /** Forget all tracked state and recorded violations. */
    void reset();

    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** Number of individual invariant checks evaluated so far. */
    std::uint64_t numChecks() const { return numChecks_; }

    /** Record a violation found by an auxiliary checker (the race
     *  detector): same print format and abort/collect behavior as the
     *  built-in checks. */
    void report(const std::string &msg) { violation(msg); }

    /** Count an invariant evaluation performed by an auxiliary checker. */
    void noteCheck() { numChecks_ += 1; }

    // ---- event queue: monotonicity + schedule-order determinism -------

    /** A queue was constructed/destroyed; clears per-queue state (object
     *  addresses are recycled across simulations). */
    void onQueueCreated(const void *queue);
    void onQueueDestroyed(const void *queue);

    /** An event popped for execution: @p when must be >= @p now, and
     *  events sharing a tick must run in increasing @p seq order. */
    void onEventRun(const void *queue, Tick when, std::uint64_t seq,
                    Tick now);

    // ---- spawned tasks: deadlock attribution --------------------------

    /** A detached task started; @return a registration id. */
    std::uint64_t onTaskSpawn(const void *sim, const std::string &name,
                              Tick now);
    void onTaskExit(std::uint64_t id);

    /** Tasks of @p sim still registered (i.e. suspended) — the deadlock
     *  report appended to Simulator::runAll()'s panic message. */
    std::string describeActiveTasks(const void *sim) const;

    /** All registered tasks of every simulator — the attribution
     *  appended when an event is scheduled in the past (the queue does
     *  not know which simulator the offender belongs to). */
    std::string describeActiveTasks() const;

    /** Forget tasks belonging to a destroyed simulator. */
    void onSimulatorDestroyed(const void *sim);

    // ---- resume scheduling: double-resume detection -------------------

    /** A suspended coroutine was handed to the event queue for resume.
     *  Scheduling the same frame again before it runs is a violation
     *  (the second resume would corrupt the coroutine frame). */
    void onResumeScheduled(const void *frame);
    void onResumeFired(const void *frame);

    // ---- bus: conservation + mutual exclusion -------------------------

    void onBusCreated(const void *bus);

    /** A transfer was granted the bus for @p bytes. At most one transfer
     *  may hold the bus at a time. */
    void onBusTransferStart(const void *bus, std::uint64_t bytes);

    /** The transfer completed having moved @p bytes; must equal the
     *  granted request (bytes granted == bytes requested). */
    void onBusTransferEnd(const void *bus, std::uint64_t bytes);

    // ---- packetizer: combining shadow model ---------------------------

    void onPacketizerCreated(const void *packetizer);

    /** A pending combined packet began with this first write. */
    void onShadowStart(const void *packetizer, NodeId dst, PAddr addr,
                       const void *data, std::size_t len);

    /** A subsequent write was combined into the pending packet; must be
     *  destination-contiguous with what the shadow accumulated. */
    void onShadowAppend(const void *packetizer, NodeId dst, PAddr addr,
                        const void *data, std::size_t len);

    /** The pending packet was flushed: header and payload must be
     *  byte-identical to the uncombined shadow stream. */
    void onShadowFlush(const void *packetizer, const net::Packet &pkt);

    // ---- NIC: OPT window + IPT gating + per-mapping delivery order ----

    /** An OPT entry (AU binding or import slot) was used to address
     *  bytes [off, off+len) of its mapped window. */
    void onOptUse(NodeId node, bool valid, NodeId dest_node,
                  std::size_t off, std::size_t len, std::size_t window);

    void onIncomingEngineCreated(const void *engine);

    /** The incoming engine is about to DMA a packet into memory.
     *  @p ipt_enabled is the IPT gate for the destination range (a
     *  delivery into a disabled page means a stale IPT entry slipped
     *  through the freeze protocol). @p seq 0 means unsequenced (raw
     *  test packets); otherwise packets from one source must arrive in
     *  strictly increasing injection order. */
    void onDelivery(const void *engine, NodeId src, std::uint64_t seq,
                    bool ipt_enabled);

    /** A deliberate-update packet is about to enter the outgoing FIFO:
     *  its payload must be whole words and byte-identical to the
     *  @p len source-memory bytes it claims to carry (@p expected is an
     *  independent re-read of that range). */
    void onDuPacket(const void *packetizer, const net::Packet &pkt,
                    const void *expected, std::size_t len);

    // ---- mesh/routers: conservation + per-link in-order delivery ------

    void onMeshCreated(const void *mesh);
    void onMeshDestroyed(const void *mesh);

    /** Packet @p seq (mesh-wide, nonzero) was injected at @p src toward
     *  @p dst; XY routing must traverse exactly @p expect_hops links. */
    void onMeshInject(const void *mesh, NodeId src, NodeId dst,
                      int expect_hops, std::uint64_t seq);

    /** Packet @p seq completed one link traversal. */
    void onMeshHop(const void *mesh, std::uint64_t seq);

    /** Packet @p seq was ejected at node @p at. Conservation: it must be
     *  in flight; it must eject at its destination; packets of one
     *  (src, dst) pair must eject in injection order; and its link
     *  traversals must equal the route length (each hop consumes and
     *  returns exactly one link credit). */
    void onMeshEject(const void *mesh, NodeId at, NodeId src, NodeId dst,
                     std::uint64_t seq);

    void onRouterCreated(const void *router);
    void onRouterDestroyed(const void *router);

    /** A packet from @p src finished traversing link @p dir of router
     *  @p router_id: per-source seqs on one link must be strictly
     *  increasing, and seq 0 (never injected) is itself a violation. */
    void onLinkTraverse(const void *router, NodeId router_id, int dir,
                        NodeId src, std::uint64_t seq);

  private:
    SimChecker() = default;

    void violation(const std::string &msg);

    struct QueueState
    {
        bool any = false;
        Tick lastWhen = 0;
        std::uint64_t lastSeq = 0;
    };

    struct TaskRec
    {
        const void *sim;
        std::string name;
        Tick spawned;
    };

    struct BusState
    {
        bool active = false;
        std::uint64_t grantedBytes = 0;
        std::uint64_t totalRequested = 0;
        std::uint64_t totalGranted = 0;
    };

    struct Shadow
    {
        bool active = false;
        NodeId dst = invalidNode;
        PAddr base = 0;
        std::vector<std::uint8_t> bytes;
    };

    struct InflightPkt
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        int expectHops = 0;
        int hops = 0;
    };

    struct MeshState
    {
        std::unordered_map<std::uint64_t, InflightPkt> inflight;
        std::map<std::pair<NodeId, NodeId>, std::deque<std::uint64_t>>
            fifo;
    };

    struct RouterState
    {
        // (dir, src) -> last seq that finished traversing that link.
        std::map<std::pair<int, NodeId>, std::uint64_t> lastLinkSeq;
    };

    bool abortOnViolation_ = true;
    std::uint64_t numChecks_ = 0;
    std::vector<std::string> violations_;

    std::unordered_map<const void *, QueueState> queues_;
    std::map<std::uint64_t, TaskRec> tasks_;
    std::uint64_t nextTaskId_ = 1;
    std::unordered_set<const void *> scheduledResumes_;
    std::unordered_map<const void *, BusState> buses_;
    std::unordered_map<const void *, Shadow> shadows_;
    std::unordered_map<const void *, std::map<NodeId, std::uint64_t>>
        lastDeliverySeq_;
    std::unordered_map<const void *, MeshState> meshes_;
    std::unordered_map<const void *, RouterState> routers_;
};

} // namespace shrimp::check

/**
 * Hook macro wrapping every checker call site. Compiles to nothing
 * unless the SHRIMP_CHECK CMake option is on, so instrumented hot paths
 * cost zero in normal builds.
 */
#ifdef SHRIMP_CHECK
#define SHRIMP_CHECK_HOOK(...)                                               \
    do {                                                                     \
        if (::shrimp::check::on()) {                                         \
            __VA_ARGS__;                                                     \
        }                                                                    \
    } while (0)
#else
#define SHRIMP_CHECK_HOOK(...)                                               \
    do {                                                                     \
    } while (0)
#endif

#endif // SHRIMP_CHECK_CHECK_HH
