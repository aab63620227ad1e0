/**
 * @file
 * MachineConfig: every calibration knob of the simulated SHRIMP prototype
 * in one place. Defaults are calibrated so the microbenchmarks of the
 * paper (Felten et al., ISCA 1996) reproduce: AU one-word latency 4.75 us
 * (write-through) / 3.7 us (uncached), DU one-word latency 7.6 us,
 * DU-0copy peak bandwidth ~23 MB/s, AU-1copy peak ~20-21 MB/s.
 *
 * Bandwidths are in MB/s (10^6 bytes/s, as the paper quotes them);
 * times are in nanoseconds of simulated time.
 */

#ifndef SHRIMP_BASE_CONFIG_HH
#define SHRIMP_BASE_CONFIG_HH

#include <cstddef>

#include "base/types.hh"

namespace shrimp
{

/**
 * Apply SHRIMP_* environment overrides to the process-wide observability
 * knobs. Reads:
 *   SHRIMP_LOG_LEVEL  integer for logging::verbosity (0=errors, 1=warn,
 *                     2=inform, 3=debug)
 *   SHRIMP_TRACE      path for a Chrome trace-event JSON dump at exit
 *                     (enables the tracer)
 *   SHRIMP_STATS      any non-empty value dumps the StatRegistry at exit
 * Idempotent and cheap; called from Machine construction and from
 * trace::parseCliFlags().
 */
void applyEnvOverrides();

/** How a virtual page is cached by the node CPU (section 3.1). */
enum class CacheMode
{
    WriteBack,    //!< normal cacheable data
    WriteThrough, //!< required for automatic-update send regions
    Uncached,     //!< caching disabled
};

struct MachineConfig
{
    // ---- topology ------------------------------------------------------
    /** Mesh dimensions; the prototype is a 4-node 2x2 mesh. */
    int meshWidth = 2;
    int meshHeight = 2;

    /** Physical memory per node (paper: 40 MB; default smaller). */
    std::size_t nodeMemBytes = 8 * units::MiB;

    /** Page size used by MMU, OPT and IPT. */
    std::size_t pageBytes = 4096;

    // ---- CPU cost model (60 MHz Pentium) -------------------------------
    /** Generic small operation: procedure call, flag update, check. */
    Tick cpuOpCost = 50;

    /** One polling iteration: load flag, compare, branch. */
    Tick pollCheckCost = 250;

    /** Per-library-API-call software overhead (entry, error checks). */
    Tick libCallCost = 700;

    /** memcpy bandwidth by destination page cache mode. */
    double copyBwWriteBack = 30.0;
    double copyBwWriteThrough = 21.0;
    double copyBwUncached = 25.0;

    /** Fixed overhead per memcpy call (loop setup). */
    Tick copyCallOverhead = 100;

    /**
     * Extra latency charged when a transfer lands in a *cached*
     * (write-through) receive page: the incoming DMA invalidates the
     * receiver's cache lines, so the poll that detects the flag misses;
     * the sender's write-through store also stalls. Calibrated from the
     * paper's 4.75 us (write-through) vs 3.7 us (uncached) AU numbers.
     */
    Tick wtReceivePenalty = 1050;

    // ---- notifications --------------------------------------------------
    /** Cost of delivering a notification via a UNIX signal (current
     *  implementation in the paper). */
    Tick signalDeliveryCost = 60 * units::us;

    /** Cost of the planned active-message-style reimplementation. */
    Tick fastNotifyCost = 5 * units::us;

    /** Use the fast notification path instead of signals. */
    bool fastNotifications = false;

    /** Kernel + daemon work to service a receive-datapath freeze
     *  interrupt (data arrived for a disabled page). */
    Tick interruptHandlerCost = 10 * units::us;

    // ---- EISA expansion bus ---------------------------------------------
    /**
     * Effective DMA bandwidth. EISA bursts at 33 MB/s, but every DMA also
     * crosses the shared Xpress memory bus; the paper observes ~23 MB/s
     * aggregate for DU-0copy, so the model folds the sharing into an
     * effective rate.
     */
    double eisaDmaBw = 24.5;

    /** One programmed-I/O access from the CPU to the NIC (DU initiation
     *  uses a sequence of two of these, section 2.2). */
    Tick eisaPioCost = 1600;

    /** DU engine per-transfer setup before its DMA read of main memory. */
    Tick dmaReadSetup = 800;

    /** Incoming DMA engine per-packet setup before writing main memory. */
    Tick dmaWriteSetup = 1200;

    // ---- SHRIMP network interface ---------------------------------------
    /** Largest packet payload the NIC will form (one page). */
    std::size_t maxPacketBytes = 512;

    /** Largest run of consecutive AU writes combined into one packet
     *  (bounded by the outgoing FIFO). */
    std::size_t auCombineLimit = 512;

    /** Hardware timer: a pending combined AU packet is flushed if no
     *  subsequent consecutive write arrives within this time. */
    Tick auCombineTimeout = 1050;

    /** Snoop-match + packet-header formation time. */
    Tick snoopPacketizeCost = 400;

    /** Arbiter + NIC processor-port forwarding, per packet. */
    Tick nicForwardCost = 200;

    // ---- iMRC mesh backplane --------------------------------------------
    /** Per-hop routing latency of one iMRC. */
    Tick hopLatency = 60;

    /** Per-link bandwidth (never the bottleneck; EISA is). */
    double linkBw = 175.0;

    // ---- commodity Ethernet side channel --------------------------------
    Tick etherLatency = 1 * units::ms;
    double etherBw = 1.0;

    // ---- checkers (SHRIMP_CHECK builds only) ----------------------------
    /** Race-detector per-page read-record cap. Oldest records past the
     *  cap are dropped (counted by racecheck.readRecsDropped); raise it
     *  if a workload ever reports drops. */
    std::size_t raceReadRecCap = 32;

    /** Number of nodes implied by the mesh dimensions. */
    int numNodes() const { return meshWidth * meshHeight; }

    /** Pages per node implied by memory size. */
    std::size_t pagesPerNode() const { return nodeMemBytes / pageBytes; }

    /** memcpy bandwidth for a destination page with the given mode. */
    double copyBw(CacheMode mode) const;

    /** Throw FatalError if the configuration is inconsistent. */
    void validate() const;
};

} // namespace shrimp

#endif // SHRIMP_BASE_CONFIG_HH
