/**
 * @file
 * Tests for the RaceDetector: seeded races between every pair of
 * memory-touching actor kinds (CPU, packetizer snoop, DU engine,
 * incoming DMA) and seeded page-ownership violations, each asserting
 * that the report names *both* actors involved; plus false-positive
 * regressions for every legitimate ordering edge the detector models
 * (flag-poll observation, handoff, packet clocks, export-window clocks,
 * the IPT drain edge, sync-object release/acquire, backdoor clearing,
 * the end-of-run fence, and byte-precise conflict ranges). A final
 * integration section (SHRIMP_CHECK builds) drives a real VMMC exchange
 * and catches an unsynchronized receive-buffer read through the full
 * compiled hook stack.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hh"
#include "check/race.hh"
#include "test_util.hh"
#include "vmmc/vmmc.hh"

namespace shrimp
{
namespace
{

class RaceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        checker().reset(); // also resets the RaceDetector
        checker().setAbortOnViolation(false);
    }

    void
    TearDown() override
    {
        checker().reset();
        checker().setAbortOnViolation(true);
    }

    static check::SimChecker &
    checker()
    {
        return check::SimChecker::instance();
    }

    static check::RaceDetector &
    race()
    {
        return check::RaceDetector::instance();
    }

    /** True iff some recorded violation mentions every given needle. */
    static bool
    sawViolation(const std::vector<std::string> &needles)
    {
        for (const std::string &v : checker().violations()) {
            bool all = true;
            for (const std::string &n : needles) {
                if (v.find(n) == std::string::npos) {
                    all = false;
                    break;
                }
            }
            if (all)
                return true;
        }
        return false;
    }

    /** Attribute one write to @p actor. */
    void
    write(check::ActorId actor, PAddr addr, std::size_t n, Tick now)
    {
        race().pushActor(actor);
        race().onWrite(&mem_, addr, n, now);
        race().popActor();
    }

    /** Attribute one read to @p actor. */
    void
    read(check::ActorId actor, PAddr addr, std::size_t n, Tick now)
    {
        race().pushActor(actor);
        race().onRead(&mem_, addr, n, now);
        race().popActor();
    }

    int mem_ = 0; //!< dummy memory identity (state created on demand)
};

// ---- seeded races: one per actor pair ----------------------------------

TEST_F(RaceTest, CpuVsIncomingDmaWriteWriteCaught)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(cpu, 0x100, 64, 10);
    write(dma, 0x100, 64, 20); // no edge between the two
    EXPECT_TRUE(sawViolation({"write-write conflict", "cpu 'node0.p0'",
                              "dma 'node0.dma'"}));
}

TEST_F(RaceTest, CpuVsSnoopWriteWriteCaught)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    write(snoop, 0x200, 16, 5);
    write(cpu, 0x200, 16, 9);
    EXPECT_TRUE(sawViolation({"write-write conflict", "cpu 'node0.p0'",
                              "snoop 'node0.snoop'"}));
}

TEST_F(RaceTest, DuVsIncomingDmaReadWriteCaught)
{
    // The DU engine DMA-reads a source buffer an unordered incoming
    // delivery is overwriting: the classic reuse-before-drain bug.
    auto du = race().registerActor("node0.du", check::ActorKind::Du);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(dma, 0x1000, 512, 30);
    read(du, 0x1000, 512, 40);
    EXPECT_TRUE(sawViolation({"read-write conflict", "du 'node0.du'",
                              "dma 'node0.dma'"}));
}

TEST_F(RaceTest, CpuReadVsDmaWriteCaught)
{
    auto cpu = race().registerActor("node1.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    write(dma, 0x0, 512, 100);
    read(cpu, 0x0, 512, 200); // never observed a flag
    EXPECT_TRUE(sawViolation({"read-write conflict", "cpu 'node1.p0'",
                              "dma 'node1.dma'"}));
}

TEST_F(RaceTest, DmaWriteVsCpuReadCaught)
{
    // Write-after-read: the buffer is overwritten while an unordered
    // reader may still be mid-copy.
    auto cpu = race().registerActor("node1.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    read(cpu, 0x0, 900, 100);
    write(dma, 0x0, 512, 150);
    EXPECT_TRUE(sawViolation({"write-read conflict", "cpu 'node1.p0'",
                              "dma 'node1.dma'"}));
}

TEST_F(RaceTest, SnoopVsDmaWriteWriteCaught)
{
    auto snoop =
        race().registerActor("node2.snoop", check::ActorKind::Snoop);
    auto dma = race().registerActor("node2.dma", check::ActorKind::Dma);
    write(snoop, 0x300, 4, 7);
    write(dma, 0x300, 4, 8);
    EXPECT_TRUE(sawViolation({"write-write conflict",
                              "snoop 'node2.snoop'", "dma 'node2.dma'"}));
}

// ---- seeded ownership violations ---------------------------------------

TEST_F(RaceTest, StoreToAuBoundWriteBackPageCaught)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    race().onCacheMode(&mem_, 0x0, CacheMode::WriteBack, 0);
    race().onAuBind(&mem_, 0x0, 1);
    write(cpu, 0x40, 4, 2);
    EXPECT_TRUE(sawViolation(
        {"AU-bound with write-back caching", "cpu 'node0.p0'"}));
}

TEST_F(RaceTest, AuBindOfDirtyWriteBackPageCaught)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    race().onCacheMode(&mem_, 0x0, CacheMode::WriteBack, 0);
    write(cpu, 0x40, 4, 1); // dirty in the write-back cache
    race().onAuBind(&mem_, 0x0, 2);
    EXPECT_TRUE(sawViolation({"AU-bound", "dirty CPU stores"}));
}

TEST_F(RaceTest, AuBindAfterFlushIsClean)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    race().onCacheMode(&mem_, 0x0, CacheMode::WriteBack, 0);
    write(cpu, 0x40, 4, 1);
    // The mode switch to write-through is the flush edge bindAu makes.
    race().onCacheMode(&mem_, 0x0, CacheMode::WriteThrough, 2);
    race().onAuBind(&mem_, 0x0, 3);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, WriteBackWhileAuBoundCaught)
{
    race().onCacheMode(&mem_, 0x0, CacheMode::WriteThrough, 0);
    race().onAuBind(&mem_, 0x0, 1);
    race().onCacheMode(&mem_, 0x0, CacheMode::WriteBack, 2);
    EXPECT_TRUE(sawViolation({"write-back caching", "while AU-bound"}));
}

TEST_F(RaceTest, OverlappingIptWindowsCaught)
{
    auto exp = race().registerActor("node1.p0", check::ActorKind::Cpu);
    race().onIptEnable(&mem_, 0x0, exp, 1);
    race().onIptEnable(&mem_, 0x0, exp, 2);
    EXPECT_TRUE(sawViolation({"overlapping IPT export windows"}));
}

TEST_F(RaceTest, IptDisableWithoutWindowCaught)
{
    auto exp = race().registerActor("node1.p0", check::ActorKind::Cpu);
    race().onIptDisable(&mem_, 0x0, exp, 5);
    EXPECT_TRUE(sawViolation({"no window is open"}));
}

// ---- false-positive regressions: every legitimate edge -----------------

TEST_F(RaceTest, FlagPollObservationOrdersReaderAfterWriter)
{
    // The canonical receive: the DMA delivers data then a flag; the CPU
    // polls the flag (atomic read -> observation edge) and only then
    // reads the data. No conflict.
    auto cpu = race().registerActor("node1.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    write(dma, 0x0, 512, 10);  // data
    write(dma, 0x3e8, 4, 11);  // flag
    read(cpu, 0x3e8, 4, 20);   // poll observes the flag
    read(cpu, 0x0, 512, 21);   // ordered data read
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, HandoffOrdersBothDirections)
{
    // PIO initiation / blocking completion: CPU and DU engine exchange
    // clocks, so accesses on either side of the handoff never conflict.
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto du = race().registerActor("node0.du", check::ActorKind::Du);
    write(cpu, 0x500, 256, 1);
    race().handoff(cpu, du);
    read(du, 0x500, 256, 2); // DU engine DMA-reads the source
    race().handoff(du, cpu);
    write(cpu, 0x500, 256, 3); // CPU reuses the buffer after completion
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, PacketClockOrdersDeliveryAfterSource)
{
    // snapshot() at packet formation, join() before the delivery DMA:
    // the receive-side DMA is ordered after everything the sender did.
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    write(snoop, 0x700, 4, 1);
    auto clk = race().snapshot(snoop);
    race().join(dma, clk);
    write(dma, 0x700, 4, 2); // same (shared-shadow) range, now ordered
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, ExportWindowClockOrdersDeliveryAfterSetup)
{
    // The exporter initializes the buffer, then registers the export
    // (IPT window). Deliveries join the window clock, so they are
    // ordered after the setup writes.
    auto exp = race().registerActor("node1.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    write(exp, 0x0, 4096, 1); // zero the receive buffer
    race().onIptEnable(&mem_, 0x0, exp, 2);
    race().joinWindow(&mem_, 0x100, 512, dma);
    write(dma, 0x100, 512, 3);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, IptDrainEdgeLetsExporterReuseBuffer)
{
    // Closing the window waits for in-flight deliveries; the closer
    // absorbs the page's last-delivery clock and may reuse the buffer.
    auto exp = race().registerActor("node1.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    race().onIptEnable(&mem_, 0x0, exp, 1);
    race().joinWindow(&mem_, 0x0, 512, dma);
    write(dma, 0x0, 512, 2);
    race().onIptDisable(&mem_, 0x0, exp, 3);
    read(exp, 0x0, 512, 4);
    write(exp, 0x0, 512, 5);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, SyncObjectReleaseAcquireOrders)
{
    auto a = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto b = race().registerActor("node0.p1", check::ActorKind::Cpu);
    int obj = 0;
    write(a, 0x900, 128, 1);
    race().objRelease(&obj, a); // e.g. Condition::notifyAll
    race().objAcquire(&obj, b);
    read(b, 0x900, 128, 2);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, BackdoorWriteClearsTrackedState)
{
    // A raw test poke re-initializes the range: conflicts against
    // pre-poke accesses would be stale.
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(dma, 0xa00, 64, 1);
    race().onWrite(&mem_, 0xa00, 64, 2); // no actor in scope: backdoor
    write(cpu, 0xa00, 64, 3);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, FenceAllSynchronizesEveryActor)
{
    // The event queue drained: nothing is in flight, so post-run
    // inspection and next-phase reuse are ordered after everything.
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(dma, 0xb00, 256, 1);
    race().fenceAll();
    read(cpu, 0xb00, 256, 2);
    write(cpu, 0xb00, 256, 3);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, WordSharingWithoutByteOverlapIsClean)
{
    // Two ops share a shadow word but not a single byte (a 1190-byte
    // read next to a 512-byte delivery): byte-precise ranges must not
    // conflict on the shared word.
    auto cpu = race().registerActor("node1.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node1.dma", check::ActorKind::Dma);
    write(dma, 1190, 512, 1);
    read(cpu, 0, 1190, 2);
    write(cpu, 0, 1190, 3);
    EXPECT_TRUE(checker().violations().empty());
}

// ---- per-word write history (eviction false-negative regressions) ------

TEST_F(RaceTest, PartialWordOverwriteDoesNotHideOlderWrite)
{
    // Regression: with one record per word (last-writer-wins), the
    // snoop's write to bytes [0,2) of the word evicted the record of
    // the CPU's write to bytes [2,4) — no conflict between those two,
    // but the DMA's later unordered write to [2,4) went undetected.
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(cpu, 0x102, 2, 10);   // bytes [2,4) of the word at 0x100
    write(snoop, 0x100, 2, 20); // bytes [0,2): no byte overlap, clean
    EXPECT_TRUE(checker().violations().empty());
    write(dma, 0x102, 2, 30); // unordered with the cpu write
    EXPECT_TRUE(sawViolation({"write-write conflict", "cpu 'node0.p0'",
                              "dma 'node0.dma'"}));
}

TEST_F(RaceTest, RepeatedWritesBySameActorDoNotEvictOthersRecord)
{
    // An actor re-writing the same bytes replaces its own history
    // entry instead of flooding the word and evicting other records.
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(cpu, 0x100, 2, 10); // bytes [0,2)
    for (Tick t = 20; t < 26; ++t)
        write(snoop, 0x102, 2, t); // bytes [2,4), six times
    EXPECT_TRUE(checker().violations().empty());
    write(dma, 0x100, 2, 30); // unordered with the cpu write
    EXPECT_TRUE(sawViolation({"write-write conflict", "cpu 'node0.p0'",
                              "dma 'node0.dma'"}));
}

TEST_F(RaceTest, ReadCatchesOlderPartialWordWrite)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    auto du = race().registerActor("node0.du", check::ActorKind::Du);
    write(cpu, 0x102, 2, 10);
    write(snoop, 0x100, 2, 20); // would have evicted the cpu record
    read(du, 0x100, 64, 30);    // large read, unordered with both
    EXPECT_TRUE(sawViolation({"read-write conflict", "cpu 'node0.p0'"}));
    EXPECT_TRUE(
        sawViolation({"read-write conflict", "snoop 'node0.snoop'"}));
}

TEST_F(RaceTest, BackdoorWriteClearsTheWholeWriteHistory)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(cpu, 0x102, 2, 10);
    write(snoop, 0x100, 2, 20);
    race().onWrite(&mem_, 0x100, 4, 30); // backdoor: no actor in scope
    write(dma, 0x100, 4, 40);            // whole word, after the poke
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, FlagPollJoinsEveryWriterInTheWord)
{
    // An atomic poll observes the word's current content, which holds
    // bytes from two different writers: the reader must be ordered
    // after both, so its own write to the word is then clean.
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto snoop =
        race().registerActor("node0.snoop", check::ActorKind::Snoop);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    write(snoop, 0x100, 2, 10);
    write(dma, 0x102, 2, 20);
    read(cpu, 0x100, 4, 30); // atomic observation of both halves
    write(cpu, 0x100, 4, 40);
    EXPECT_TRUE(checker().violations().empty());
}

// ---- read-record cap accounting ----------------------------------------

TEST_F(RaceTest, ReadRecordDropsPastTheCapAreCounted)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    // Order the reader after the writer so the reads themselves are
    // clean; 40 large reads on one page overflow the 32-record cap.
    race().handoff(cpu, dma);
    const std::uint64_t before = race().readRecsDropped();
    for (int i = 0; i < 40; ++i)
        read(cpu, PAddr(0x1000 + i * 64), 32, Tick(100 + i));
    EXPECT_EQ(race().readRecsDropped(), before + 8);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(RaceTest, ReadRecordCapIsConfigurable)
{
    auto cpu = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto dma = race().registerActor("node0.dma", check::ActorKind::Dma);
    race().handoff(cpu, dma);
    const std::size_t saved = race().readRecCap();
    race().setReadRecCap(8);
    const std::uint64_t before = race().readRecsDropped();
    for (int i = 0; i < 40; ++i)
        read(cpu, PAddr(0x1000 + i * 64), 32, Tick(100 + i));
    EXPECT_EQ(race().readRecsDropped(), before + 32);
    // A zero cap clamps to 1: the newest read is always recorded.
    race().setReadRecCap(0);
    EXPECT_EQ(race().readRecCap(), 1u);
    race().setReadRecCap(saved);
}

#ifdef SHRIMP_CHECK
TEST_F(RaceTest, MachineConfigPlumbsReadRecCap)
{
    const std::size_t saved = race().readRecCap();
    MachineConfig cfg;
    cfg.raceReadRecCap = 5;
    node::Machine m(cfg);
    EXPECT_EQ(race().readRecCap(), 5u);
    race().setReadRecCap(saved);
}
#endif

TEST_F(RaceTest, ActorsAreDeduplicatedByName)
{
    auto a = race().registerActor("node0.p0", check::ActorKind::Cpu);
    auto b = race().registerActor("node0.p0", check::ActorKind::Cpu);
    EXPECT_EQ(a, b);
    EXPECT_EQ(race().numActors(), 1u);
}

#ifdef SHRIMP_CHECK

// ---- integration: real stack, compiled hook sites ----------------------

constexpr std::size_t kPage = 4096;

TEST_F(RaceTest, UnsynchronizedReceiveBufferReadCaughtEndToEnd)
{
    // A full VMMC deliberate-update exchange where the receiver reads
    // its buffer on a timer instead of polling the flag: the timed read
    // has no happens-before edge to the deliveries and must be flagged,
    // attributed to the receiving CPU and its incoming DMA engine.
    vmmc::System sys;
    vmmc::Endpoint &a = sys.createEndpoint(0);
    vmmc::Endpoint &b = sys.createEndpoint(1);
    test::runTask(
        sys.sim(),
        [](vmmc::Endpoint &a, vmmc::Endpoint &b) -> sim::Task<> {
            VAddr rbuf = b.proc().alloc(2 * kPage);
            co_await b.exportBuffer(50, rbuf, 2 * kPage);
            vmmc::ImportResult r = co_await a.import(1, 50);
            EXPECT_EQ(r.status, vmmc::Status::Ok);

            auto data = test::pattern(6000, 3);
            VAddr src = a.proc().alloc(2 * kPage);
            a.proc().poke(src, data.data(), data.size());
            EXPECT_EQ(co_await a.send(r.handle, 0, src, data.size()),
                      vmmc::Status::Ok);

            // "Surely it has arrived by now": no flag poll, just time.
            co_await b.proc().compute(Tick(50'000'000));
            std::vector<std::uint8_t> got(data.size());
            co_await b.proc().read(rbuf, got.data(), got.size());
        }(a, b));

    EXPECT_TRUE(sawViolation({"read-write conflict", "cpu 'node1.p0'",
                              "dma 'node1.dma'"}));
}

TEST_F(RaceTest, FlagPolledReceiveRunsCleanEndToEnd)
{
    // The same exchange done right (poll the flag past the data) stays
    // silent under abort mode: every compiled edge hook is live.
    checker().setAbortOnViolation(true);
    vmmc::System sys;
    vmmc::Endpoint &a = sys.createEndpoint(0);
    vmmc::Endpoint &b = sys.createEndpoint(1);
    test::runTask(
        sys.sim(),
        [](vmmc::Endpoint &a, vmmc::Endpoint &b) -> sim::Task<> {
            VAddr rbuf = b.proc().alloc(2 * kPage);
            co_await b.exportBuffer(51, rbuf, 2 * kPage);
            vmmc::ImportResult r = co_await a.import(1, 51);

            auto data = test::pattern(6000, 4);
            VAddr src = a.proc().alloc(2 * kPage);
            a.proc().poke(src, data.data(), data.size());
            EXPECT_EQ(co_await a.send(r.handle, 0, src, data.size()),
                      vmmc::Status::Ok);

            co_await b.proc().waitWord32Ne(VAddr(rbuf + data.size() - 4),
                                           0);
            std::vector<std::uint8_t> got(data.size());
            co_await b.proc().read(rbuf, got.data(), got.size());
            EXPECT_EQ(got, data);
        }(a, b));

    EXPECT_TRUE(checker().violations().empty());
    EXPECT_GT(race().numActors(), 0u);
}

#endif // SHRIMP_CHECK

} // namespace
} // namespace shrimp
