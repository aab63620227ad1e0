/**
 * @file
 * Process: a user process on a node. Owns an address space and provides
 * the *timed* memory operations that all user-level code in the
 * communication libraries is written against:
 *
 *  - write()/copy() model CPU stores, charge copy time according to the
 *    destination page's cache mode, and pass each chunk to the NIC snoop
 *    logic (so stores to automatic-update-bound pages become packets,
 *    "eliminating the need for an explicit send operation");
 *  - waitWord32Eq()/waitWord32Ne() are the polling receive primitives:
 *    they charge a poll cost per check and sleep on the node memory's
 *    write watchpoint in between, plus the cache-invalidation penalty
 *    when the polled page is cached. Any write to node memory wakes
 *    every poller, which re-checks at once: a write to an unrelated
 *    word can start the check that detects the flag (DESIGN.md §11);
 *  - peek()/poke() are untimed accessors for test setup and inspection.
 */

#ifndef SHRIMP_NODE_PROCESS_HH
#define SHRIMP_NODE_PROCESS_HH

#include <cstdint>

#include "base/config.hh"
#include "mem/address_space.hh"
#include "node/node.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace shrimp::node
{

class Process
{
  public:
    Process(Node &node, int pid);

    Node &node() { return node_; }
    NodeId nodeId() const { return node_.id(); }
    int pid() const { return pid_; }
    mem::AddressSpace &as() { return as_; }
    const MachineConfig &config() const { return node_.config(); }
    sim::Simulator &sim() { return node_.sim(); }

    /** Race-detector actor id of this process's CPU accesses (only
     *  meaningful in SHRIMP_CHECK builds; noActor otherwise). */
    std::uint32_t raceActor() const { return raceActor_; }

    /** Allocate fresh page-aligned memory. */
    VAddr alloc(std::size_t bytes, CacheMode mode = CacheMode::WriteBack);

    // ---- untimed accessors (test setup / inspection; no snooping) -----
    void poke(VAddr addr, const void *src, std::size_t n);
    void peek(VAddr addr, void *dst, std::size_t n) const;
    std::uint32_t peek32(VAddr addr) const;
    void poke32(VAddr addr, std::uint32_t v);
    /** Like peek, but a pure harness backdoor: never attributed to this
     *  process by the race detector. Use for omniscient verification
     *  reads that model no CPU access of the simulated program. */
    void debugPeek(VAddr addr, void *dst, std::size_t n) const;

    // ---- timed operations ---------------------------------------------
    /** Occupy the CPU for @p t ticks. */
    sim::Task<> compute(Tick t);

    /** Store @p n bytes at @p dst: charges copy time by the destination
     *  cache mode and feeds the NIC snoop logic chunk by chunk, so
     *  stores into AU-bound pages stream out as packets. */
    sim::Task<> write(VAddr dst, const void *src, std::size_t n);

    /** Load @p n bytes from @p src into host memory. */
    sim::Task<> read(VAddr src, void *dst, std::size_t n);

    /** Local memcpy between two mapped regions (timed, snooped). */
    sim::Task<> copy(VAddr dst, VAddr src, std::size_t n);

    sim::Task<> store32(VAddr addr, std::uint32_t v);
    sim::Task<std::uint32_t> load32(VAddr addr);

    /** Poll until the word at @p addr differs from @p not_value;
     *  returns the satisfying value. */
    sim::Task<std::uint32_t> waitWord32Ne(VAddr addr,
                                          std::uint32_t not_value);

    /** Poll until the word at @p addr equals @p value. */
    sim::Task<std::uint32_t> waitWord32Eq(VAddr addr, std::uint32_t value);

    /**
     * One iteration of a multi-location poll loop: charge one poll
     * check's cost, then sleep until the next write to node memory.
     * Callers rescan their predicate afterwards.
     */
    sim::Task<> pollSleep();

    /** Charge the cache-invalidation detection penalty for data that
     *  just arrived at @p addr (no charge for uncached pages). */
    sim::Task<> detectPenalty(VAddr addr);

  private:
    /** The poll loop behind waitWord32Eq/Ne: the equality/inequality
     *  predicate is two scalars, not a std::function, because it runs
     *  once per poll check on the hottest receive path. */
    sim::Task<std::uint32_t> pollWord32(VAddr addr, std::uint32_t ref,
                                        bool want_equal);

    Node &node_;
    int pid_;
    mem::AddressSpace as_;
    std::uint32_t raceActor_ = 0xffffffffu; // check::noActor
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_PROCESS_HH
