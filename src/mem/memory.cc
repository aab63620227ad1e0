#include "mem/memory.hh"

#include <cstring>

#include "base/logging.hh"
#include "check/check.hh"
#include "check/race.hh"

namespace shrimp::mem
{

Memory::Memory(sim::EventQueue &queue, std::size_t bytes,
               std::size_t page_bytes, std::string name)
    : queue_(queue), data_(bytes), pageBytes_(page_bytes),
      name_(std::move(name)), writeWaiters_(queue)
{
    if (page_bytes == 0 || bytes % page_bytes != 0)
        fatal("memory size must be a multiple of the page size");
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onMemoryCreated(
        this, name_, pageBytes_));
}

Memory::~Memory()
{
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onMemoryDestroyed(
        this));
}

void
Memory::checkRange(PAddr addr, std::size_t n) const
{
    if (std::size_t(addr) + n > data_.size())
        panic(logging::format("%s: physical access [0x%x, +%zu) out of "
                              "range (%zu bytes)",
                              name_.c_str(), addr, n, data_.size()));
}

void
Memory::write(PAddr addr, const void *src, std::size_t n)
{
    checkRange(addr, n);
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onWrite(
        this, addr, n, queue_.now()));
    if (n > 0)
        std::memcpy(data_.data() + addr, src, n);
    data_.noteDirty(std::size_t(addr) + n);
    ++writeCount_;
    notifyWrite();
}

void
Memory::read(PAddr addr, void *dst, std::size_t n) const
{
    checkRange(addr, n);
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onRead(
        this, addr, n, queue_.now()));
    if (n > 0)
        std::memcpy(dst, data_.data() + addr, n);
}

#ifdef SHRIMP_CHECK
// Unchecked builds define these inline in the header; here the generic
// paths run so every word access reaches the race detector's hooks.
std::uint32_t
Memory::read32(PAddr addr) const
{
    std::uint32_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
Memory::write32(PAddr addr, std::uint32_t value)
{
    write(addr, &value, sizeof(value));
}
#endif // SHRIMP_CHECK

PAddr
Memory::allocFrames(std::size_t pages)
{
    std::size_t bytes = pages * pageBytes_;
    if (std::size_t(nextFrame_) + bytes > data_.size())
        fatal(name_ + ": out of physical memory");
    PAddr base = nextFrame_;
    nextFrame_ += PAddr(bytes);
    return base;
}

std::size_t
Memory::freeFrames() const
{
    return (data_.size() - nextFrame_) / pageBytes_;
}

} // namespace shrimp::mem
