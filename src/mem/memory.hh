/**
 * @file
 * Memory: one node's physical memory. Holds real bytes (protocols in the
 * libraries move actual data, which tests verify end-to-end) and supports
 * a write watchpoint: a polling task sleeps until the next write to this
 * memory, then re-checks its flag. Every write wakes every sleeping
 * poller, whatever bytes it touched (a zero-length write included):
 * that broadcast is the one poll-wakeup model the calibrated figures
 * run. Timing is charged by the components that access memory (CPU,
 * DMA engines), not here.
 */

#ifndef SHRIMP_MEM_MEMORY_HH
#define SHRIMP_MEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "base/types.hh"
#include "mem/zero_region.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace shrimp::mem
{

class Memory
{
    // analyze: node-owned — one per node

  public:
    Memory(sim::EventQueue &queue, std::size_t bytes, std::size_t page_bytes,
           std::string name = "mem");
    ~Memory();

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    const std::string &name() const { return name_; }
    sim::EventQueue &queue() { return queue_; }

    std::size_t size() const { return data_.size(); }
    std::size_t pageBytes() const { return pageBytes_; }
    PageNum pageOf(PAddr addr) const { return addr / pageBytes_; }
    std::size_t numPages() const { return data_.size() / pageBytes_; }

    /** Copy @p n bytes into memory at @p addr and wake write-watchers. */
    void write(PAddr addr, const void *src, std::size_t n);

    /** Copy @p n bytes out of memory at @p addr. */
    void read(PAddr addr, void *dst, std::size_t n) const;

    std::uint32_t read32(PAddr addr) const;
    void write32(PAddr addr, std::uint32_t value);

    /**
     * Suspend until the next write to this memory (any address, any
     * length). Users poll a predicate:
     *   while (!flagSet()) co_await m.waitWrite();
     */
    sim::Condition::WaitAwaiter waitWrite() { return writeWaiters_.wait(); }

    /**
     * Allocate @p pages physically-contiguous page frames.
     * The SHRIMP daemons arrange physically-contiguous communication
     * buffers on the real system; the simulator simply never fragments.
     * @return physical address of the first frame.
     */
    PAddr allocFrames(std::size_t pages);

    /** Frames still unallocated. */
    std::size_t freeFrames() const;

    std::uint64_t writeCount() const { return writeCount_; }

  private:
    void checkRange(PAddr addr, std::size_t n) const;

    /** Wake every sleeping poller: any write, even a zero-length one,
     *  counts. No-op when nobody is waiting, so un-watched writes pay
     *  nothing for the mechanism. */
    void
    notifyWrite()
    {
        if (writeWaiters_.numWaiters() != 0)
            writeWaiters_.notifyAll();
    }

    sim::EventQueue &queue_;
    ZeroRegion data_;
    std::size_t pageBytes_;
    std::string name_;
    sim::Condition writeWaiters_;
    PAddr nextFrame_ = 0;
    std::uint64_t writeCount_ = 0;
};

#ifndef SHRIMP_CHECK
// Word-access fast path: the flag words the libraries poll and publish
// are all accessed through these, so in unchecked builds they skip the
// generic read()/write() double dispatch (range check + hook + memcpy
// call) for a bounds test and a fixed-size copy. Checked builds keep the
// generic path so the race detector sees every access.

inline std::uint32_t
Memory::read32(PAddr addr) const
{
    if (std::size_t(addr) + sizeof(std::uint32_t) > data_.size())
        [[unlikely]]
        checkRange(addr, sizeof(std::uint32_t));
    std::uint32_t v;
    std::memcpy(&v, data_.data() + addr, sizeof(v));
    return v;
}

inline void
Memory::write32(PAddr addr, std::uint32_t value)
{
    if (std::size_t(addr) + sizeof(value) > data_.size()) [[unlikely]]
        checkRange(addr, sizeof(value));
    std::memcpy(data_.data() + addr, &value, sizeof(value));
    data_.noteDirty(std::size_t(addr) + sizeof(value));
    ++writeCount_;
    notifyWrite();
}
#endif // !SHRIMP_CHECK

} // namespace shrimp::mem

#endif // SHRIMP_MEM_MEMORY_HH
