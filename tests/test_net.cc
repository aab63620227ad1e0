/**
 * @file
 * Unit tests for the routing backplane: mesh geometry, XY routing,
 * delivery, the per-pair in-order guarantee, and link timing.
 */

#include <gtest/gtest.h>


#include "base/logging.hh"
#include "base/span.hh"
#include "net/mesh.hh"
#include "test_util.hh"

namespace shrimp::net
{
namespace
{

MachineConfig
meshConfig(int w, int h)
{
    MachineConfig cfg;
    cfg.meshWidth = w;
    cfg.meshHeight = h;
    return cfg;
}

Packet
makePacket(NodeId src, NodeId dst, std::size_t len, std::uint8_t fill)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.destAddr = 0x1000;
    p.payload.assign(len, fill);
    return p;
}

TEST(Mesh, CoordinatesFollowRowMajorLayout)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(4, 2));
    EXPECT_EQ(mesh.xOf(0), 0);
    EXPECT_EQ(mesh.yOf(0), 0);
    EXPECT_EQ(mesh.xOf(5), 1);
    EXPECT_EQ(mesh.yOf(5), 1);
    EXPECT_EQ(mesh.numNodes(), 8);
}

TEST(Mesh, HopsIsManhattanDistance)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(4, 4));
    EXPECT_EQ(mesh.hops(0, 0), 0);
    EXPECT_EQ(mesh.hops(0, 3), 3);
    EXPECT_EQ(mesh.hops(0, 15), 6);
    EXPECT_EQ(mesh.hops(5, 10), 2);
}

TEST(Mesh, XYRoutingGoesXFirst)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(4, 4));
    // From 0 (0,0) to 15 (3,3): first move east.
    EXPECT_EQ(mesh.nextDir(0, 15), Dir::East);
    // From 3 (3,0) to 15 (3,3): x matches, move south.
    EXPECT_EQ(mesh.nextDir(3, 15), Dir::South);
    // Westward and northward too.
    EXPECT_EQ(mesh.nextDir(15, 0), Dir::West);
    EXPECT_EQ(mesh.nextDir(12, 0), Dir::North);
}

TEST(Mesh, NextDirOnSelfPanics)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(2, 2));
    EXPECT_THROW(mesh.nextDir(1, 1), PanicError);
}

TEST(Mesh, NeighborAtEdgePanics)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(2, 2));
    EXPECT_THROW(mesh.neighbor(0, Dir::West), PanicError);
    EXPECT_THROW(mesh.neighbor(0, Dir::North), PanicError);
    EXPECT_EQ(mesh.neighbor(0, Dir::East), 1);
    EXPECT_EQ(mesh.neighbor(0, Dir::South), 2);
}

TEST(Mesh, DeliversToDestinationEjectQueue)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(2, 2));
    mesh.inject(makePacket(0, 3, 64, 0xAB));
    bool got = false;
    s.spawn([](Mesh &mesh, bool &got) -> sim::Task<> {
        Packet p = co_await mesh.router(3).ejectQueue().recv();
        EXPECT_EQ(p.src, 0);
        EXPECT_EQ(p.payload.size(), 64u);
        EXPECT_EQ(p.payload[0], 0xAB);
        got = true;
    }(mesh, got));
    s.runAll();
    EXPECT_TRUE(got);
    EXPECT_EQ(mesh.packetsDelivered(), 1u);
}

TEST(Mesh, SelfDeliveryWorks)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(2, 2));
    mesh.inject(makePacket(1, 1, 8, 0x55));
    bool got = false;
    s.spawn([](Mesh &mesh, bool &got) -> sim::Task<> {
        Packet p = co_await mesh.router(1).ejectQueue().recv();
        EXPECT_EQ(p.src, 1);
        got = true;
    }(mesh, got));
    s.runAll();
    EXPECT_TRUE(got);
}

TEST(Mesh, LatencyScalesWithHopCount)
{
    MachineConfig cfg = meshConfig(4, 1);
    Tick lat1 = 0, lat3 = 0;
    for (auto [dst, out] : {std::pair<NodeId, Tick *>{1, &lat1},
                            std::pair<NodeId, Tick *>{3, &lat3}}) {
        sim::Simulator s;
        Mesh mesh(s, cfg);
        mesh.inject(makePacket(0, dst, 16, 0));
        s.spawn([](Mesh &mesh, NodeId dst, Tick *out,
                   sim::Simulator &s) -> sim::Task<> {
            co_await mesh.router(dst).ejectQueue().recv();
            *out = s.now();
        }(mesh, dst, out, s));
        s.runAll();
    }
    EXPECT_GT(lat3, lat1);
    // Store-and-forward: roughly 3x the single-hop time.
    EXPECT_NEAR(double(lat3), 3.0 * double(lat1), double(lat1));
}

TEST(Mesh, PerPairOrderPreserved)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(4, 4));
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        Packet p = makePacket(0, 15, 16 + (i % 5) * 32, std::uint8_t(i));
        p.destAddr = PAddr(i); // tag with sequence for checking
        mesh.inject(std::move(p));
    }
    std::vector<PAddr> order;
    s.spawn([](Mesh &mesh, std::vector<PAddr> &order, int n) -> sim::Task<> {
        for (int i = 0; i < n; ++i) {
            Packet p = co_await mesh.router(15).ejectQueue().recv();
            order.push_back(p.destAddr);
        }
    }(mesh, order, n));
    s.runAll();
    ASSERT_EQ(order.size(), std::size_t(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(order[i], PAddr(i)) << "packet " << i << " out of order";
}

TEST(Mesh, CrossTrafficKeepsPerPairOrder)
{
    // Two senders to the same destination: each sender's stream stays
    // ordered even though the streams interleave.
    sim::Simulator s;
    Mesh mesh(s, meshConfig(4, 4));
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        Packet a = makePacket(0, 5, 32, 0);
        a.destAddr = PAddr(i);
        mesh.inject(std::move(a));
        Packet b = makePacket(7, 5, 48, 1);
        b.destAddr = PAddr(1000 + i);
        mesh.inject(std::move(b));
    }
    std::vector<PAddr> from0, from7;
    s.spawn([](Mesh &mesh, std::vector<PAddr> &from0,
               std::vector<PAddr> &from7, int n) -> sim::Task<> {
        for (int i = 0; i < 2 * n; ++i) {
            Packet p = co_await mesh.router(5).ejectQueue().recv();
            (p.src == 0 ? from0 : from7).push_back(p.destAddr);
        }
    }(mesh, from0, from7, n));
    s.runAll();
    ASSERT_EQ(from0.size(), std::size_t(n));
    ASSERT_EQ(from7.size(), std::size_t(n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(from0[i], PAddr(i));
        EXPECT_EQ(from7[i], PAddr(1000 + i));
    }
}

TEST(Mesh, OutOfRangeNodePanics)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(2, 2));
    EXPECT_THROW(mesh.inject(makePacket(0, 9, 8, 0)), PanicError);
}

TEST(Router, CountsForwardedPackets)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(1, 2));
    mesh.inject(makePacket(0, 1, 8, 0));
    mesh.inject(makePacket(0, 1, 8, 0));
    s.spawn([](Mesh &mesh) -> sim::Task<> {
        co_await mesh.router(1).ejectQueue().recv();
        co_await mesh.router(1).ejectQueue().recv();
    }(mesh));
    s.runAll();
    EXPECT_EQ(mesh.router(0).forwarded(), 2u);
}

TEST(Packet, ContiguityPredicate)
{
    Packet a = makePacket(0, 1, 16, 0);
    a.destAddr = 0x100;
    Packet b = makePacket(0, 1, 16, 0);
    b.destAddr = 0x110;
    EXPECT_TRUE(a.contiguousWith(b));
    b.destAddr = 0x114;
    EXPECT_FALSE(a.contiguousWith(b));
    b.dst = 2;
    b.destAddr = 0x110;
    EXPECT_FALSE(a.contiguousWith(b));
}

TEST(Packet, WireBytesIncludesHeader)
{
    Packet p = makePacket(0, 1, 100, 0);
    EXPECT_EQ(p.wireBytes(), 100 + Packet::headerBytes);
}

} // namespace
} // namespace shrimp::net

namespace shrimp::net
{
namespace
{

TEST(MeshIncast, AllToOneDeliversEverythingInPerPairOrder)
{
    // Incast congestion: every node floods node 0; per-pair FIFO must
    // survive the contention on node 0's ejection path.
    sim::Simulator s;
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    Mesh mesh(s, cfg);
    const int per = 30;
    for (NodeId src = 1; src < 16; ++src) {
        for (int i = 0; i < per; ++i) {
            Packet p;
            p.src = src;
            p.dst = 0;
            p.destAddr = PAddr(src) * 1000 + PAddr(i);
            p.payload.assign(64 + (i % 7) * 32, std::uint8_t(src));
            mesh.inject(std::move(p));
        }
    }
    std::vector<std::vector<PAddr>> got(16);
    s.spawn([](Mesh &mesh, std::vector<std::vector<PAddr>> &got,
               int total) -> sim::Task<> {
        for (int k = 0; k < total; ++k) {
            Packet p = co_await mesh.router(0).ejectQueue().recv();
            got[p.src].push_back(p.destAddr);
        }
    }(mesh, got, 15 * per));
    s.runAll();
    for (NodeId src = 1; src < 16; ++src) {
        ASSERT_EQ(got[src].size(), std::size_t(per)) << "src " << src;
        for (int i = 0; i < per; ++i)
            EXPECT_EQ(got[src][i], PAddr(src) * 1000 + PAddr(i));
    }
}

TEST(MeshIncast, LinkContentionSlowsButNeverDrops)
{
    sim::Simulator s;
    MachineConfig cfg;
    Mesh mesh(s, cfg); // 2x2
    // Saturate the single link 0->1 from two flows (0->1 and 0->3 share
    // the first hop under XY routing).
    for (int i = 0; i < 50; ++i) {
        Packet a;
        a.src = 0;
        a.dst = 1;
        a.destAddr = PAddr(i);
        a.payload.assign(512, 1);
        mesh.inject(std::move(a));
        Packet b;
        b.src = 0;
        b.dst = 3;
        b.destAddr = PAddr(1000 + i);
        b.payload.assign(512, 3);
        mesh.inject(std::move(b));
    }
    int got1 = 0, got3 = 0;
    s.spawn([](Mesh &mesh, int &got1) -> sim::Task<> {
        for (int k = 0; k < 50; ++k) {
            co_await mesh.router(1).ejectQueue().recv();
            ++got1;
        }
    }(mesh, got1));
    s.spawn([](Mesh &mesh, int &got3) -> sim::Task<> {
        for (int k = 0; k < 50; ++k) {
            co_await mesh.router(3).ejectQueue().recv();
            ++got3;
        }
    }(mesh, got3));
    s.runAll();
    EXPECT_EQ(got1, 50);
    EXPECT_EQ(got3, 50);
    // 100 packets of 528 wire bytes over a 175 MB/s link: at least the
    // serialization time must have elapsed.
    EXPECT_GE(s.now(), units::transferTime(100 * 528, 175.0));
}

// ---- pinned delivery streams --------------------------------------------
// DESIGN.md §13: the link ledger replaced a per-packet coroutine engine
// that co_awaited a full Bus handshake at every hop. Each test below runs
// one traffic pattern and pins a digest of its complete delivery stream
// — every ejection's (tick, node, src, destAddr), in global simulation
// order — recorded on that engine. Global order matters: within-tick
// ejections feed receiver wakeups, so an ordering difference would be
// observable downstream.

struct Delivery
{
    Tick tick;
    NodeId node;
    NodeId src;
    PAddr destAddr;
};

/**
 * Run @p traffic on a fresh w x h mesh, draining @p perNode[n] packets
 * from each node's eject queue, and return the deliveries in the order
 * the simulation produced them.
 */
template <typename Traffic>
std::vector<Delivery>
runTraffic(int w, int h, Traffic &&traffic, const std::vector<int> &perNode)
{
    sim::Simulator s;
    Mesh mesh(s, meshConfig(w, h));
    std::vector<Delivery> out;
    for (int n = 0; n < w * h; ++n) {
        if (perNode[n] == 0)
            continue;
        s.spawn([](sim::Simulator &s, Mesh &mesh, NodeId node, int count,
                   std::vector<Delivery> &out) -> sim::Task<> {
            for (int k = 0; k < count; ++k) {
                Packet p = co_await mesh.router(node).ejectQueue().recv();
                out.push_back(Delivery{s.now(), node, p.src, p.destAddr});
            }
        }(s, mesh, NodeId(n), perNode[n], out));
    }
    traffic(s, mesh);
    s.runAll();
    EXPECT_EQ(mesh.packetsInFlight(), 0u);
    return out;
}

/** FNV-1a digest of a delivery stream and any other mixed-in values. */
struct StreamDigest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    mix(const std::vector<Delivery> &ds)
    {
        for (const Delivery &d : ds) {
            mix(d.tick);
            mix(d.node);
            mix(d.src);
            mix(d.destAddr);
        }
    }
};

std::uint64_t
digestOf(const std::vector<Delivery> &ds)
{
    StreamDigest d;
    d.mix(ds);
    return d.h;
}

/** All-pairs burst: every node sends to every other node at tick 0, so
 *  every link sees contention and every ledger FIFO gets exercised. */
void
injectAllPairs(Mesh &mesh)
{
    int n = mesh.numNodes();
    for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
            if (dst == src)
                continue;
            Packet p;
            p.src = NodeId(src);
            p.dst = NodeId(dst);
            p.destAddr = PAddr(src) * 10000 + PAddr(dst);
            p.payload.assign(256, std::uint8_t(src ^ dst));
            mesh.inject(std::move(p));
        }
    }
}

TEST(MeshEngines, AllPairs4x4DeliveryStreamsMatch)
{
    std::vector<int> per(16, 15);
    auto traffic = [](sim::Simulator &, Mesh &m) { injectAllPairs(m); };
    EXPECT_EQ(digestOf(runTraffic(4, 4, traffic, per)),
              0x6a8e62f2919c4516ull);
}

TEST(MeshEngines, AllPairs8x8DeliveryStreamsMatch)
{
    std::vector<int> per(64, 63);
    auto traffic = [](sim::Simulator &, Mesh &m) { injectAllPairs(m); };
    EXPECT_EQ(digestOf(runTraffic(8, 8, traffic, per)),
              0x47a2b74b5a5b3a7eull);
}

TEST(MeshEngines, SpanSampledDeliveryAndFlowStreamsMatch)
{
    // --span-sample coverage: with sampling on and the tracer capturing,
    // the digest pins the delivery stream AND the flow-event stream
    // (every sampled packet's hop/eject waypoints, ticks and ids).
    auto &tracer = trace::Tracer::instance();
    using Phase = trace::Tracer::Phase;
    auto traffic = [](sim::Simulator &, Mesh &mesh) {
        trace::TrackId t = trace::track("mesh_test.origin");
        int n = mesh.numNodes();
        for (NodeId src = 0; src < n; ++src) {
            for (NodeId dst = 0; dst < n; ++dst) {
                if (dst == src)
                    continue;
                Packet p;
                p.src = src;
                p.dst = dst;
                p.destAddr = PAddr(src) * 10000 + PAddr(dst);
                p.payload.assign(128, std::uint8_t(src ^ dst));
                p.spanId = span::origin(t, "msg", 0);
                mesh.inject(std::move(p));
            }
        }
    };
    std::vector<int> per(16, 15);

    tracer.setEnabled(true);
    tracer.clear();
    span::reset();
    span::setSampleEvery(2);
    StreamDigest digest;
    digest.mix(runTraffic(4, 4, traffic, per));
    int flowEvents = 0;
    for (const auto &e : tracer.events()) {
        if (e.phase < Phase::FlowStart)
            continue;
        ++flowEvents;
        digest.mix(std::uint64_t(e.phase));
        digest.mix(e.tick);
        for (const char *c = e.name; *c; ++c)
            digest.mix(std::uint64_t(std::uint8_t(*c)));
        digest.mix(e.id);
    }
    span::reset();
    tracer.setEnabled(false);
    tracer.clear();

    EXPECT_GT(flowEvents, 0);
    EXPECT_EQ(digest.h, 0x6f7ef849f12248d1ull);
}

TEST(MeshEngines, IncastContentionDeliveryStreamsMatch)
{
    // All-to-one with varied payloads: heavy waiter queues on the links
    // into node 0, so contended grants dominate the schedule.
    const int per_src = 20;
    auto traffic = [per_src](sim::Simulator &, Mesh &mesh) {
        for (NodeId src = 1; src < 16; ++src) {
            for (int i = 0; i < per_src; ++i) {
                Packet p;
                p.src = src;
                p.dst = 0;
                p.destAddr = PAddr(src) * 1000 + PAddr(i);
                p.payload.assign(64 + (i % 7) * 32, std::uint8_t(src));
                mesh.inject(std::move(p));
            }
        }
    };
    std::vector<int> per(16, 0);
    per[0] = 15 * per_src;
    EXPECT_EQ(digestOf(runTraffic(4, 4, traffic, per)),
              0xb6fa13d5cd98ede0ull);
}

TEST(MeshEngines, StaggeredSeededTrafficDeliveryStreamsMatch)
{
    // Injections spread over time by a seeded LCG: packets arrive while
    // links are mid-occupancy, empty, and queued, including self-sends.
    struct Shot
    {
        Tick delay;
        NodeId dst;
        std::size_t len;
    };
    std::vector<std::vector<Shot>> plan(16);
    std::vector<int> per(16, 0);
    std::uint32_t seed = 0xC0FFEE;
    auto next = [&seed] {
        seed = seed * 1664525u + 1013904223u;
        return seed >> 8;
    };
    for (int src = 0; src < 16; ++src) {
        for (int i = 0; i < 25; ++i) {
            Shot sh;
            sh.delay = Tick(next() % 4000);
            sh.dst = NodeId(next() % 16); // self-sends included
            sh.len = 16 + next() % 480;
            plan[src].push_back(sh);
            ++per[sh.dst];
        }
    }
    auto traffic = [&plan](sim::Simulator &s, Mesh &mesh) {
        for (int src = 0; src < 16; ++src) {
            s.spawn([](sim::Simulator &s, Mesh &mesh, NodeId src,
                       const std::vector<Shot> &shots) -> sim::Task<> {
                for (const Shot &sh : shots) {
                    co_await sim::Delay{s.queue(), sh.delay};
                    Packet p;
                    p.src = src;
                    p.dst = sh.dst;
                    p.destAddr = PAddr(src) * 100000 + PAddr(sh.dst);
                    p.payload.assign(sh.len, std::uint8_t(src));
                    mesh.inject(std::move(p));
                }
            }(s, mesh, NodeId(src), plan[src]));
        }
    };
    EXPECT_EQ(digestOf(runTraffic(4, 4, traffic, per)),
              0x7b973c8084d9a3dcull);
}

} // namespace
} // namespace shrimp::net
