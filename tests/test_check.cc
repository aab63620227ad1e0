/**
 * @file
 * Tests for the SimChecker invariant layer. Each invariant gets a
 * seeded violation fed through the checker's hook interface directly
 * (the checker object is compiled in every build), asserting that the
 * violation is caught and that clean sequences pass. Builds configured
 * with -DSHRIMP_CHECK=ON additionally exercise the compiled-in hook
 * sites: a real deadlock report naming the stuck task, and a full VMMC
 * exchange running violation-free under abort mode. The determinism
 * verifier's trace-hash primitive is tested pass and fail.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/trace.hh"
#include "check/check.hh"
#include "net/mesh.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "test_util.hh"
#include "vmmc/vmmc.hh"

namespace shrimp
{
namespace
{

class CheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        checker().reset();
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

    static bool
    sawViolation(const std::string &needle)
    {
        for (const std::string &v : checker().violations()) {
            if (v.find(needle) != std::string::npos)
                return true;
        }
        return false;
    }
};

// ---- event queue: monotonicity + schedule order ------------------------

TEST_F(CheckTest, MonotonicEventStreamPasses)
{
    int q = 0;
    checker().onQueueCreated(&q);
    checker().onEventRun(&q, 10, 1, 0);
    checker().onEventRun(&q, 10, 2, 10);
    checker().onEventRun(&q, 25, 3, 10);
    EXPECT_TRUE(checker().violations().empty());
    EXPECT_EQ(checker().numChecks(), 3u);
}

TEST_F(CheckTest, TimeGoingBackwardsCaught)
{
    int q = 0;
    checker().onQueueCreated(&q);
    checker().onEventRun(&q, 50, 1, 0);
    checker().onEventRun(&q, 20, 2, 50); // event before "now"
    EXPECT_TRUE(sawViolation("time went backwards"));
}

TEST_F(CheckTest, SameTickSeqOrderViolationCaught)
{
    int q = 0;
    checker().onQueueCreated(&q);
    checker().onEventRun(&q, 10, 7, 0);
    checker().onEventRun(&q, 10, 5, 10); // same tick, lower seq
    EXPECT_TRUE(sawViolation("out of schedule order"));
}

TEST_F(CheckTest, QueueStateResetsWhenAddressReused)
{
    int q = 0;
    checker().onQueueCreated(&q);
    checker().onEventRun(&q, 100, 9, 0);
    checker().onQueueDestroyed(&q);
    // A new queue at the same address starts from tick 0 again.
    checker().onQueueCreated(&q);
    checker().onEventRun(&q, 5, 1, 0);
    EXPECT_TRUE(checker().violations().empty());
}

// ---- double resume -----------------------------------------------------

TEST_F(CheckTest, DoubleResumeCaught)
{
    int frame = 0;
    checker().onResumeScheduled(&frame);
    checker().onResumeScheduled(&frame); // still pending: violation
    EXPECT_TRUE(sawViolation("double resume"));
}

TEST_F(CheckTest, ResumeAfterFireIsClean)
{
    int frame = 0;
    checker().onResumeScheduled(&frame);
    checker().onResumeFired(&frame);
    checker().onResumeScheduled(&frame);
    checker().onResumeFired(&frame);
    EXPECT_TRUE(checker().violations().empty());
}

// ---- bus: conservation + mutual exclusion ------------------------------

TEST_F(CheckTest, CleanBusTransfersPass)
{
    int bus = 0;
    checker().onBusCreated(&bus);
    checker().onBusTransferStart(&bus, 64);
    checker().onBusTransferEnd(&bus, 64);
    checker().onBusTransferStart(&bus, 4096);
    checker().onBusTransferEnd(&bus, 4096);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, OverlappingBusGrantCaught)
{
    int bus = 0;
    checker().onBusCreated(&bus);
    checker().onBusTransferStart(&bus, 64);
    checker().onBusTransferStart(&bus, 32); // bus is not free
    EXPECT_TRUE(sawViolation("second transfer"));
}

TEST_F(CheckTest, BusByteConservationViolationCaught)
{
    int bus = 0;
    checker().onBusCreated(&bus);
    checker().onBusTransferStart(&bus, 64);
    checker().onBusTransferEnd(&bus, 32); // moved less than granted
    EXPECT_TRUE(sawViolation("conservation"));
}

TEST_F(CheckTest, BusEndWithoutGrantCaught)
{
    int bus = 0;
    checker().onBusCreated(&bus);
    checker().onBusTransferEnd(&bus, 64);
    EXPECT_TRUE(sawViolation("never granted"));
}

// ---- packetizer combining shadow ---------------------------------------

namespace
{

net::Packet
makePacket(NodeId dst, PAddr addr, const std::vector<std::uint8_t> &bytes)
{
    net::Packet pkt;
    pkt.src = 0;
    pkt.dst = dst;
    pkt.destAddr = addr;
    pkt.payload = bytes;
    return pkt;
}

} // namespace

TEST_F(CheckTest, CombinedPacketMatchingShadowPasses)
{
    int pz = 0;
    std::uint32_t w1 = 0x11223344, w2 = 0x55667788;
    checker().onPacketizerCreated(&pz);
    checker().onShadowStart(&pz, 1, 0x1000, &w1, sizeof(w1));
    checker().onShadowAppend(&pz, 1, 0x1004, &w2, sizeof(w2));

    std::vector<std::uint8_t> bytes(8);
    std::memcpy(bytes.data(), &w1, 4);
    std::memcpy(bytes.data() + 4, &w2, 4);
    checker().onShadowFlush(&pz, makePacket(1, 0x1000, bytes));
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, CombinedPayloadMismatchCaught)
{
    int pz = 0;
    std::uint32_t w1 = 0x11223344, w2 = 0x55667788;
    checker().onPacketizerCreated(&pz);
    checker().onShadowStart(&pz, 1, 0x1000, &w1, sizeof(w1));
    checker().onShadowAppend(&pz, 1, 0x1004, &w2, sizeof(w2));

    std::vector<std::uint8_t> bytes(8);
    std::memcpy(bytes.data(), &w1, 4);
    std::memcpy(bytes.data() + 4, &w2, 4);
    bytes[5] ^= 0xff; // corrupt one combined byte
    checker().onShadowFlush(&pz, makePacket(1, 0x1000, bytes));
    EXPECT_TRUE(sawViolation("not byte-identical"));
}

TEST_F(CheckTest, NonContiguousCombineCaught)
{
    int pz = 0;
    std::uint32_t w = 0xdeadbeef;
    checker().onPacketizerCreated(&pz);
    checker().onShadowStart(&pz, 1, 0x1000, &w, sizeof(w));
    checker().onShadowAppend(&pz, 1, 0x1010, &w, sizeof(w)); // hole
    EXPECT_TRUE(sawViolation("non-consecutive"));
}

TEST_F(CheckTest, CrossNodeCombineCaught)
{
    int pz = 0;
    std::uint32_t w = 0xdeadbeef;
    checker().onPacketizerCreated(&pz);
    checker().onShadowStart(&pz, 1, 0x1000, &w, sizeof(w));
    checker().onShadowAppend(&pz, 2, 0x1004, &w, sizeof(w));
    EXPECT_TRUE(sawViolation("different destination nodes"));
}

TEST_F(CheckTest, FlushWithoutShadowIsLenient)
{
    // Checking can be enabled mid-run; a flush for a packet the shadow
    // never saw start must not fire.
    int pz = 0;
    checker().onPacketizerCreated(&pz);
    checker().onShadowFlush(&pz, makePacket(1, 0x1000, {1, 2, 3, 4}));
    EXPECT_TRUE(checker().violations().empty());
}

// ---- NIC: OPT window + IPT gating + delivery order ---------------------

TEST_F(CheckTest, OptAccessWithinWindowPasses)
{
    checker().onOptUse(0, true, 1, 4092, 4, 4096);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, OptAccessBeyondWindowCaught)
{
    checker().onOptUse(0, true, 1, 4092, 8, 4096);
    EXPECT_TRUE(sawViolation("exceeds the mapped window"));
}

TEST_F(CheckTest, InvalidOptEntryCaught)
{
    checker().onOptUse(0, false, 1, 0, 4, 4096);
    EXPECT_TRUE(sawViolation("invalid OPT entry"));
}

TEST_F(CheckTest, InOrderDeliveryPasses)
{
    int eng = 0;
    checker().onIncomingEngineCreated(&eng);
    checker().onDelivery(&eng, 0, 1, true);
    checker().onDelivery(&eng, 1, 1, true); // per-source sequences
    checker().onDelivery(&eng, 0, 2, true);
    checker().onDelivery(&eng, 0, 5, true); // gaps are fine (other dsts)
    checker().onDelivery(&eng, 1, 2, true);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, OutOfOrderDeliveryCaught)
{
    int eng = 0;
    checker().onIncomingEngineCreated(&eng);
    checker().onDelivery(&eng, 0, 5, true);
    checker().onDelivery(&eng, 0, 3, true); // reordered
    EXPECT_TRUE(sawViolation("out-of-order delivery"));
}

TEST_F(CheckTest, DuplicateDeliveryCaught)
{
    int eng = 0;
    checker().onIncomingEngineCreated(&eng);
    checker().onDelivery(&eng, 0, 4, true);
    checker().onDelivery(&eng, 0, 4, true);
    EXPECT_TRUE(sawViolation("out-of-order delivery"));
}

TEST_F(CheckTest, StaleIptEntryCaught)
{
    int eng = 0;
    checker().onIncomingEngineCreated(&eng);
    checker().onDelivery(&eng, 0, 1, false); // delivery into frozen page
    EXPECT_TRUE(sawViolation("stale IPT entry"));
}

TEST_F(CheckTest, UnsequencedPacketSkipsOrderCheck)
{
    int eng = 0;
    checker().onIncomingEngineCreated(&eng);
    checker().onDelivery(&eng, 0, 5, true);
    checker().onDelivery(&eng, 0, 0, true); // raw test packet: no seq
    EXPECT_TRUE(checker().violations().empty());
}

// ---- DU packet shadow (uncombined single-transfer path) ----------------

TEST_F(CheckTest, DuPacketMatchingSourcePasses)
{
    int pz = 0;
    std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
    checker().onDuPacket(&pz, makePacket(1, 0x2000, bytes), bytes.data(),
                         bytes.size());
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, DuPacketPartialWordCaught)
{
    int pz = 0;
    std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6};
    checker().onDuPacket(&pz, makePacket(1, 0x2000, bytes), bytes.data(),
                         bytes.size());
    EXPECT_TRUE(sawViolation("not a whole number of words"));
}

TEST_F(CheckTest, DuPacketPayloadMismatchCaught)
{
    int pz = 0;
    std::vector<std::uint8_t> bytes = {1, 2, 3, 4};
    std::vector<std::uint8_t> mem = {1, 2, 0xee, 4}; // source differs
    checker().onDuPacket(&pz, makePacket(1, 0x2000, bytes), mem.data(),
                         mem.size());
    EXPECT_TRUE(sawViolation("DU shadow check"));
}

// ---- mesh: conservation, routing, order, credits -----------------------

TEST_F(CheckTest, MeshCleanTransitPasses)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshInject(&mesh, 0, 3, 2, 1);
    checker().onMeshHop(&mesh, 1);
    checker().onMeshHop(&mesh, 1);
    checker().onMeshEject(&mesh, 3, 0, 3, 1);
    // A second packet on the same pair, in order.
    checker().onMeshInject(&mesh, 0, 3, 2, 2);
    checker().onMeshHop(&mesh, 2);
    checker().onMeshHop(&mesh, 2);
    checker().onMeshEject(&mesh, 3, 0, 3, 2);
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, MeshEjectOfNeverInjectedPacketCaught)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshEject(&mesh, 3, 0, 3, 9);
    EXPECT_TRUE(sawViolation("never injected"));
}

TEST_F(CheckTest, MeshDuplicateSeqCaught)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshInject(&mesh, 0, 3, 2, 1);
    checker().onMeshInject(&mesh, 1, 2, 1, 1);
    EXPECT_TRUE(sawViolation("same sequence number"));
}

TEST_F(CheckTest, MeshMisrouteCaught)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshInject(&mesh, 0, 3, 2, 1);
    checker().onMeshHop(&mesh, 1);
    checker().onMeshHop(&mesh, 1);
    checker().onMeshEject(&mesh, 2, 0, 3, 1); // wrong node
    EXPECT_TRUE(sawViolation("misrouted"));
}

TEST_F(CheckTest, MeshCreditConservationCaught)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshInject(&mesh, 0, 3, 2, 1);
    checker().onMeshHop(&mesh, 1); // only one of two traversals
    checker().onMeshEject(&mesh, 3, 0, 3, 1);
    EXPECT_TRUE(sawViolation("credit conservation"));
}

TEST_F(CheckTest, MeshPairOrderViolationCaught)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshInject(&mesh, 0, 3, 2, 1);
    checker().onMeshInject(&mesh, 0, 3, 2, 2);
    for (int i = 0; i < 2; ++i) {
        checker().onMeshHop(&mesh, 1);
        checker().onMeshHop(&mesh, 2);
    }
    checker().onMeshEject(&mesh, 3, 0, 3, 2); // overtook seq 1
    EXPECT_TRUE(sawViolation("sender-to-receiver order"));
}

TEST_F(CheckTest, MeshIndependentPairsMayInterleave)
{
    int mesh = 0;
    checker().onMeshCreated(&mesh);
    checker().onMeshInject(&mesh, 0, 3, 2, 1);
    checker().onMeshInject(&mesh, 1, 3, 1, 2);
    checker().onMeshHop(&mesh, 1);
    checker().onMeshHop(&mesh, 1);
    checker().onMeshHop(&mesh, 2);
    // Different (src, dst) pairs: ejection order is unconstrained.
    checker().onMeshEject(&mesh, 3, 1, 3, 2);
    checker().onMeshEject(&mesh, 3, 0, 3, 1);
    EXPECT_TRUE(checker().violations().empty());
}

// ---- router links: per-link per-source in-order -------------------------

TEST_F(CheckTest, LinkInOrderTraversalsPass)
{
    int router = 0;
    checker().onRouterCreated(&router);
    checker().onLinkTraverse(&router, 4, 0, 0, 1);
    checker().onLinkTraverse(&router, 4, 0, 0, 5); // gaps are fine
    checker().onLinkTraverse(&router, 4, 1, 0, 2); // other link
    checker().onLinkTraverse(&router, 4, 0, 2, 3); // other source
    EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CheckTest, LinkSeqRegressionCaught)
{
    int router = 0;
    checker().onRouterCreated(&router);
    checker().onLinkTraverse(&router, 4, 0, 0, 5);
    checker().onLinkTraverse(&router, 4, 0, 0, 3); // went backwards
    EXPECT_TRUE(sawViolation("per-link in-order delivery broken"));
}

TEST_F(CheckTest, LinkUnsequencedPacketCaught)
{
    int router = 0;
    checker().onRouterCreated(&router);
    checker().onLinkTraverse(&router, 4, 0, 0, 0); // never injected
    EXPECT_TRUE(sawViolation("unsequenced packet from node 0"));
}

// ---- task registry (deadlock attribution) ------------------------------

TEST_F(CheckTest, ActiveTaskReportNamesSuspendedTasks)
{
    int sim_a = 0, sim_b = 0;
    auto id1 = checker().onTaskSpawn(&sim_a, "reader", 100);
    checker().onTaskSpawn(&sim_a, "writer", 250);
    checker().onTaskSpawn(&sim_b, "other-sim", 0);

    std::string report = checker().describeActiveTasks(&sim_a);
    EXPECT_NE(report.find("2 suspended task(s)"), std::string::npos);
    EXPECT_NE(report.find("'reader' (spawned at 100 ns)"),
              std::string::npos);
    EXPECT_NE(report.find("'writer'"), std::string::npos);
    EXPECT_EQ(report.find("other-sim"), std::string::npos);

    checker().onTaskExit(id1);
    report = checker().describeActiveTasks(&sim_a);
    EXPECT_EQ(report.find("reader"), std::string::npos);
    EXPECT_NE(report.find("writer"), std::string::npos);

    checker().onSimulatorDestroyed(&sim_a);
    EXPECT_EQ(checker().describeActiveTasks(&sim_a),
              "no tasks registered with the checker");
}

// ---- modes -------------------------------------------------------------

TEST_F(CheckTest, AbortModeThrowsCheckError)
{
    checker().setAbortOnViolation(true);
    int eng = 0;
    checker().onIncomingEngineCreated(&eng);
    EXPECT_THROW(checker().onDelivery(&eng, 0, 1, false),
                 check::CheckError);
    // CheckError is a PanicError: panic-expecting callers keep working.
    checker().reset();
    EXPECT_THROW(checker().onDelivery(&eng, 0, 1, false), PanicError);
}

TEST_F(CheckTest, RuntimeGateTogglesHookEvaluation)
{
    EXPECT_TRUE(check::on());
    check::setEnabled(false);
    EXPECT_FALSE(check::on());
    check::setEnabled(true);
    EXPECT_TRUE(check::on());
}

// ---- determinism verifier primitive ------------------------------------

namespace
{

/** Run a tiny two-track simulated workload and return the trace hash. */
std::uint64_t
traceHashOf(Tick skew)
{
    auto &tracer = trace::Tracer::instance();
    tracer.clear();
    sim::Simulator s;
    auto t1 = tracer.track("det-a");
    auto t2 = tracer.track("det-b");
    s.spawn([](sim::Simulator &s, trace::TrackId t1, trace::TrackId t2,
               Tick skew) -> sim::Task<> {
        auto &tracer = trace::Tracer::instance();
        for (int i = 0; i < 4; ++i) {
            tracer.begin(t1, "step", s.queue().now());
            co_await sim::Delay{s.queue(), Tick(10 + skew)};
            tracer.end(t1, "step", s.queue().now());
            tracer.instant(t2, "mark", s.queue().now());
        }
    }(s, t1, t2, skew));
    s.runAll();
    return tracer.hash();
}

} // namespace

TEST_F(CheckTest, IdenticalRunsHashEqual)
{
    auto &tracer = trace::Tracer::instance();
    bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);

    std::uint64_t h1 = traceHashOf(0);
    std::uint64_t h2 = traceHashOf(0);
    EXPECT_EQ(h1, h2);

    tracer.clear();
    tracer.setEnabled(was_enabled);
}

TEST_F(CheckTest, DivergentRunsHashDiffer)
{
    auto &tracer = trace::Tracer::instance();
    bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);

    // A one-tick timing difference must change the stream hash: this is
    // what --check-determinism relies on to detect divergence.
    std::uint64_t h1 = traceHashOf(0);
    std::uint64_t h2 = traceHashOf(1);
    EXPECT_NE(h1, h2);

    tracer.clear();
    tracer.setEnabled(was_enabled);
}

#ifdef SHRIMP_CHECK

// ---- integration: compiled-in hook sites -------------------------------

TEST_F(CheckTest, DeadlockReportNamesStuckTask)
{
    sim::Simulator s;
    sim::Condition never(s.queue());
    s.spawn([](sim::Condition &c) -> sim::Task<> { co_await c.wait(); }(
                never),
            "stuck-reader");
    try {
        s.runAll();
        FAIL() << "deadlock not detected";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("stuck-reader"),
                  std::string::npos)
            << "deadlock report: " << e.what();
    }
}

TEST_F(CheckTest, VmmcExchangeRunsCleanUnderAbortMode)
{
    // A realistic DU exchange through the full stack (VMMC daemons, NIC,
    // packetizer, network, incoming DMA, EISA bus) with every compiled
    // hook live and abort mode on: any invariant violation would throw.
    checker().setAbortOnViolation(true);
    constexpr std::size_t kPage = 4096;

    vmmc::System sys;
    vmmc::Endpoint &a = sys.createEndpoint(0);
    vmmc::Endpoint &b = sys.createEndpoint(1);
    test::runTask(
        sys.sim(),
        [](vmmc::Endpoint &a, vmmc::Endpoint &b) -> sim::Task<> {
            VAddr rbuf = b.proc().alloc(2 * kPage);
            co_await b.exportBuffer(7, rbuf, 2 * kPage);
            vmmc::ImportResult r = co_await a.import(1, 7);
            EXPECT_EQ(r.status, vmmc::Status::Ok);

            auto data = test::pattern(6000, 42);
            VAddr src = a.proc().alloc(2 * kPage);
            a.proc().poke(src, data.data(), data.size());
            EXPECT_EQ(co_await a.send(r.handle, 0, src, data.size()),
                      vmmc::Status::Ok);
            co_await b.proc().waitWord32Ne(VAddr(rbuf + data.size() - 4),
                                           0);
            std::vector<std::uint8_t> got(data.size());
            b.proc().peek(rbuf, got.data(), got.size());
            EXPECT_EQ(got, data);
        }(a, b));

    EXPECT_TRUE(checker().violations().empty());
    EXPECT_GT(checker().numChecks(), 0u);
}

// Seeded contention through the real mesh with every compiled hook live
// and abort mode on: conservation, misroute, hop-count, per-pair FIFO,
// per-link per-source order (every hop sequenced), and the per-link Bus
// grant pairing must all hold on the link-ledger engine.
void
runSeededMeshContention()
{
    sim::Simulator s;
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    net::Mesh mesh(s, cfg);

    std::vector<int> per(16, 0);
    std::uint32_t seed = 0xBADC0DE;
    auto next = [&seed] {
        seed = seed * 1664525u + 1013904223u;
        return seed >> 8;
    };
    // Burst phase: incast onto node 5 plus seeded cross traffic, all at
    // tick 0, so the link FIFOs into the hot spot stack several deep.
    for (int src = 0; src < 16; ++src) {
        for (int i = 0; i < 12; ++i) {
            net::Packet p;
            p.src = NodeId(src);
            p.dst = (i % 3 == 0) ? NodeId(5) : NodeId(next() % 16);
            p.destAddr = PAddr(src) * 1000 + PAddr(i);
            p.payload.assign(32 + next() % 256, std::uint8_t(src));
            ++per[p.dst];
            mesh.inject(std::move(p));
        }
    }
    for (int n = 0; n < 16; ++n) {
        if (per[n] == 0)
            continue;
        s.spawn([](net::Mesh &mesh, NodeId node, int count) -> sim::Task<> {
            for (int k = 0; k < count; ++k)
                co_await mesh.router(node).ejectQueue().recv();
        }(mesh, NodeId(n), per[n]));
    }
    s.runAll();
    EXPECT_EQ(mesh.packetsInFlight(), 0u);
}

TEST_F(CheckTest, MeshCoalescedSeededContentionRunsCleanUnderAbortMode)
{
    checker().setAbortOnViolation(true);
    runSeededMeshContention();
    EXPECT_TRUE(checker().violations().empty());
    EXPECT_GT(checker().numChecks(), 0u);
}

#endif // SHRIMP_CHECK

} // namespace
} // namespace shrimp
