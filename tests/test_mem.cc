/**
 * @file
 * Unit tests for the memory subsystem: physical memory with write
 * watchpoints and per-process address spaces / page tables.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"

namespace shrimp::mem
{
namespace
{

constexpr std::size_t kPage = 4096;

TEST(Memory, ReadsBackWrites)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    std::uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8};
    m.write(100, data, sizeof(data));
    std::uint8_t out[16] = {};
    m.read(100, out, sizeof(out));
    EXPECT_EQ(0, memcmp(data, out, sizeof(data)));
}

TEST(Memory, Word32Helpers)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    m.write32(64, 0xdeadbeef);
    EXPECT_EQ(m.read32(64), 0xdeadbeefu);
}

TEST(Memory, OutOfRangeAccessPanics)
{
    sim::Simulator s;
    Memory m(s.queue(), 4 * kPage, kPage);
    std::uint8_t b[8] = {};
    EXPECT_THROW(m.write(4 * kPage - 4, b, 8), PanicError);
    EXPECT_THROW(m.read(4 * kPage, b, 1), PanicError);
    // Boundary access is fine.
    EXPECT_NO_THROW(m.write(4 * kPage - 8, b, 8));
}

TEST(Memory, PageOf)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    EXPECT_EQ(m.pageOf(0), 0u);
    EXPECT_EQ(m.pageOf(kPage - 1), 0u);
    EXPECT_EQ(m.pageOf(kPage), 1u);
    EXPECT_EQ(m.numPages(), 16u);
}

TEST(Memory, WriteWakesWatcher)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    Tick woke_at = 0;
    s.spawn([](sim::Simulator &s, Memory &m, Tick &woke_at) -> sim::Task<> {
        while (m.read32(0) == 0)
            co_await m.waitWrite();
        woke_at = s.now();
    }(s, m, woke_at));
    s.queue().scheduleIn(500, [&] { m.write32(0, 7); });
    s.runAll();
    EXPECT_EQ(woke_at, 500u);
}

TEST(Memory, WholeMemoryWaitStillWakesOnAnyWrite)
{
    // Any write wakes a sleeping poller, whatever bytes it touches: a
    // word far from anything polled, and a zero-length write at
    // physical address 0 (which covers no byte at all).
    for (bool zero_length : {false, true}) {
        sim::Simulator s;
        Memory m(s.queue(), 16 * kPage, kPage);
        Tick woke_at = 0;
        s.spawn([](sim::Simulator &s, Memory &m,
                   Tick &woke_at) -> sim::Task<> {
            co_await m.waitWrite();
            woke_at = s.now();
        }(s, m, woke_at));
        s.queue().scheduleIn(40, [&] {
            if (zero_length)
                m.write(0, nullptr, 0);
            else
                m.write32(15 * kPage, 1);
        });
        s.runAll();
        EXPECT_EQ(woke_at, 40u) << "zero_length=" << zero_length;
    }
}

TEST(Memory, Word32OutOfRangePanics)
{
    sim::Simulator s;
    Memory m(s.queue(), 4 * kPage, kPage);
    EXPECT_THROW(m.write32(4 * kPage - 2, 1), PanicError);
    EXPECT_THROW(m.read32(4 * kPage), PanicError);
    EXPECT_NO_THROW(m.write32(4 * kPage - 4, 1)); // boundary word fits
    EXPECT_EQ(m.read32(4 * kPage - 4), 1u);
}

TEST(Memory, FrameAllocatorIsContiguousAndExhausts)
{
    sim::Simulator s;
    Memory m(s.queue(), 4 * kPage, kPage);
    PAddr a = m.allocFrames(2);
    PAddr b = m.allocFrames(1);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, PAddr(2 * kPage));
    EXPECT_EQ(m.freeFrames(), 1u);
    EXPECT_THROW(m.allocFrames(2), FatalError);
    EXPECT_NO_THROW(m.allocFrames(1));
}

TEST(Memory, RejectsUnalignedSize)
{
    sim::Simulator s;
    EXPECT_THROW(Memory(s.queue(), kPage + 5, kPage), FatalError);
}

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceTest() : mem_(sim_.queue(), 64 * kPage, kPage), as_(mem_) {}

    sim::Simulator sim_;
    Memory mem_;
    AddressSpace as_;
};

TEST_F(AddressSpaceTest, AllocReturnsPageAligned)
{
    VAddr a = as_.alloc(100);
    EXPECT_EQ(a % kPage, 0u);
    EXPECT_TRUE(as_.mapped(a, 100));
    // Rounded up to a whole page.
    EXPECT_TRUE(as_.mapped(a, kPage));
    EXPECT_FALSE(as_.mapped(a, kPage + 1));
}

TEST_F(AddressSpaceTest, DistinctAllocationsDontOverlap)
{
    VAddr a = as_.alloc(2 * kPage);
    VAddr b = as_.alloc(kPage);
    EXPECT_GE(b, a + 2 * kPage);
    EXPECT_NE(as_.translate(a), as_.translate(b));
}

TEST_F(AddressSpaceTest, TranslateIsConsistentWithinPage)
{
    VAddr a = as_.alloc(kPage);
    PAddr pa = as_.translate(a);
    EXPECT_EQ(as_.translate(a + 123), pa + 123);
}

TEST_F(AddressSpaceTest, AllocationsArePhysicallyContiguous)
{
    VAddr a = as_.alloc(4 * kPage);
    PAddr pa = as_.translateRange(a, 4 * kPage);
    EXPECT_EQ(as_.translate(a + 3 * kPage), pa + 3 * kPage);
}

TEST_F(AddressSpaceTest, UnmappedAccessPanics)
{
    EXPECT_THROW(as_.translate(0x10), PanicError);
    VAddr a = as_.alloc(kPage);
    EXPECT_THROW(as_.translateRange(a, 2 * kPage), PanicError);
}

TEST_F(AddressSpaceTest, ZeroAllocRejected)
{
    EXPECT_THROW(as_.alloc(0), FatalError);
}

TEST_F(AddressSpaceTest, CacheModesPerPage)
{
    VAddr a = as_.alloc(2 * kPage, CacheMode::WriteBack);
    EXPECT_EQ(as_.cacheMode(a), CacheMode::WriteBack);
    as_.setCacheMode(a, kPage, CacheMode::WriteThrough);
    EXPECT_EQ(as_.cacheMode(a), CacheMode::WriteThrough);
    EXPECT_EQ(as_.cacheMode(a + kPage), CacheMode::WriteBack);
}

TEST_F(AddressSpaceTest, AllocWithModeAppliesToAllPages)
{
    VAddr a = as_.alloc(3 * kPage, CacheMode::Uncached);
    for (int p = 0; p < 3; ++p)
        EXPECT_EQ(as_.cacheMode(a + p * kPage), CacheMode::Uncached);
}

TEST_F(AddressSpaceTest, MultipleSpacesShareOneMemory)
{
    AddressSpace other(mem_);
    VAddr a = as_.alloc(kPage);
    VAddr b = other.alloc(kPage);
    // Same virtual layout, different frames.
    EXPECT_NE(as_.translate(a), other.translate(b));
}

} // namespace
} // namespace shrimp::mem
