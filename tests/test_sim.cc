/**
 * @file
 * Unit tests for the simulation core: event queue determinism, the
 * coroutine Task type, synchronization primitives, and the Bus resource.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "base/logging.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace shrimp::sim
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(300, [&] { order.push_back(3); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(200, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(50, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        ++fired;
        q.scheduleIn(5, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_THROW(q.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, PastSchedulePanicNamesBothTicks)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    try {
        q.schedule(50, [] {});
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("when=50"), std::string::npos) << msg;
        EXPECT_NE(msg.find("now=100"), std::string::npos) << msg;
    }
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.schedule(200, [&] { ++fired; });
    q.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 150u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventLimitGuardsPanic)
{
    EventQueue q;
    std::function<void()> again = [&] { q.scheduleIn(1, again); };
    q.scheduleIn(1, again);
    EXPECT_THROW(q.run(1000), PanicError);
}

Task<int>
answer(Simulator &s)
{
    co_await Delay{s.queue(), 10};
    co_return 42;
}

TEST(Task, ReturnsValueAfterDelay)
{
    Simulator s;
    int got = 0;
    s.spawn([](Simulator &s, int &got) -> Task<> {
        got = co_await answer(s);
    }(s, got));
    s.runAll();
    EXPECT_EQ(got, 42);
    EXPECT_EQ(s.now(), 10u);
}

TEST(Task, IsLazyUntilAwaited)
{
    Simulator s;
    bool ran = false;
    auto lazy = [](bool &ran) -> Task<> {
        ran = true;
        co_return;
    }(ran);
    EXPECT_FALSE(ran);
    s.spawn(std::move(lazy));
    EXPECT_TRUE(ran); // spawn starts it immediately
}

TEST(Task, ExceptionsPropagateThroughAwait)
{
    Simulator s;
    s.spawn([]() -> Task<> {
        auto thrower = []() -> Task<int> {
            panic("inner failure");
            co_return 0;
        };
        co_await thrower();
    }());
    EXPECT_THROW(s.runAll(), PanicError);
}

TEST(Task, ChainedTasksAccumulateTime)
{
    Simulator s;
    s.spawn([](Simulator &s) -> Task<> {
        for (int i = 0; i < 5; ++i)
            co_await answer(s);
        EXPECT_EQ(s.now(), 50u);
    }(s));
    s.runAll();
}

TEST(Simulator, ActiveTaskCountTracksCompletion)
{
    Simulator s;
    s.spawn([](Simulator &s) -> Task<> {
        co_await Delay{s.queue(), 5};
    }(s));
    EXPECT_EQ(s.activeTasks(), 1u);
    s.runAll();
    EXPECT_EQ(s.activeTasks(), 0u);
}

TEST(Simulator, DeadlockDetected)
{
    Simulator s;
    Condition never(s.queue());
    s.spawn([](Condition &c) -> Task<> { co_await c.wait(); }(never));
    EXPECT_THROW(s.runAll(), PanicError);
}

TEST(Simulator, BlockedDaemonIsNotADeadlock)
{
    Simulator s;
    auto ch = std::make_unique<Channel<int>>(s.queue());
    s.spawnDaemon([](Channel<int> &ch) -> Task<> {
        for (;;)
            co_await ch.recv();
    }(*ch));
    EXPECT_NO_THROW(s.runAll());
}

TEST(Simulator, DaemonExceptionsRethrownFromRun)
{
    Simulator s;
    s.spawnDaemon([](Simulator &s) -> Task<> {
        co_await Delay{s.queue(), 5};
        panic("daemon died");
    }(s));
    EXPECT_THROW(s.runAll(), PanicError);
}

TEST(Condition, WakesAllCurrentWaiters)
{
    Simulator s;
    Condition c(s.queue());
    int woke = 0;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Condition &c, int &woke) -> Task<> {
            co_await c.wait();
            ++woke;
        }(c, woke));
    }
    s.queue().scheduleIn(10, [&] { c.notifyAll(); });
    s.runAll();
    EXPECT_EQ(woke, 3);
}

TEST(Condition, NotifyDoesNotWakeFutureWaiters)
{
    Simulator s;
    Condition c(s.queue());
    bool late_woke = false;
    c.notifyAll(); // no waiters yet: no effect
    s.spawn([](Condition &c, bool &late_woke) -> Task<> {
        co_await c.wait();
        late_woke = true;
    }(c, late_woke));
    EXPECT_THROW(s.runAll(), PanicError); // deadlocked: missed notify
    EXPECT_FALSE(late_woke);
}

TEST(Condition, WaitersWakeInWaitOrder)
{
    Simulator s;
    Condition c(s.queue());
    std::vector<int> order;
    auto waiter = [](Condition &c, std::vector<int> &order,
                     int id) -> Task<> {
        co_await c.wait();
        order.push_back(id);
    };
    for (int id = 0; id < 4; ++id)
        s.spawn(waiter(c, order, id));
    s.queue().scheduleIn(5, [&] { c.notifyAll(); });
    s.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Condition, NotifiedWaiterCanRewaitWithoutRewake)
{
    Simulator s;
    Condition c(s.queue());
    int wakes = 0;
    s.spawn([](Condition &c, int &wakes) -> Task<> {
        co_await c.wait();
        ++wakes;
        co_await c.wait(); // must not be satisfied by the same notify
        ++wakes;
    }(c, wakes));
    s.queue().scheduleIn(10, [&] { c.notifyAll(); });
    s.queue().scheduleIn(20, [&] {
        EXPECT_EQ(wakes, 1);
        c.notifyAll();
    });
    s.runAll();
    EXPECT_EQ(wakes, 2);
}

TEST(Semaphore, CountingSemantics)
{
    Simulator s;
    Semaphore sem(s.queue(), 2);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        s.spawn([](Simulator &s, Semaphore &sem, std::vector<int> &order,
                   int i) -> Task<> {
            co_await sem.acquire();
            order.push_back(i);
            co_await Delay{s.queue(), 100};
            sem.release();
        }(s, sem, order, i));
    }
    s.runAll();
    // First two enter immediately; the others in FIFO order at t=100.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(s.now(), 200u);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrementsCount)
{
    Simulator s;
    Semaphore sem(s.queue(), 0);
    sem.release();
    EXPECT_EQ(sem.available(), 1u);
    s.spawn([](Semaphore &sem) -> Task<> {
        co_await sem.acquire(); // immediate
        co_return;
    }(sem));
    s.runAll();
    EXPECT_EQ(sem.available(), 0u);
}

TEST(Channel, DeliversInFifoOrder)
{
    Simulator s;
    Channel<int> ch(s.queue());
    std::vector<int> got;
    s.spawn([](Channel<int> &ch, std::vector<int> &got) -> Task<> {
        for (int i = 0; i < 5; ++i)
            got.push_back(co_await ch.recv());
    }(ch, got));
    for (int i = 0; i < 5; ++i)
        ch.send(i);
    s.runAll();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, RecvBlocksUntilSend)
{
    Simulator s;
    Channel<int> ch(s.queue());
    Tick when = 0;
    s.spawn([](Simulator &s, Channel<int> &ch, Tick &when) -> Task<> {
        int v = co_await ch.recv();
        EXPECT_EQ(v, 9);
        when = s.now();
    }(s, ch, when));
    s.queue().scheduleIn(777, [&] { ch.send(9); });
    s.runAll();
    EXPECT_EQ(when, 777u);
}

TEST(Bus, TransferTakesSetupPlusSerialization)
{
    Simulator s;
    Bus bus(s.queue(), 10.0, "b"); // 10 MB/s => 100 ns/byte
    s.spawn([](Simulator &s, Bus &bus) -> Task<> {
        co_await bus.transfer(100, 50);
        EXPECT_EQ(s.now(), 50u + 100u * 100u);
    }(s, bus));
    s.runAll();
    EXPECT_EQ(bus.bytesMoved(), 100u);
    EXPECT_EQ(bus.transactions(), 1u);
}

TEST(Bus, ContendingTransfersSerialize)
{
    Simulator s;
    Bus bus(s.queue(), 100.0, "b"); // 10 ns/byte
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Simulator &s, Bus &bus, std::vector<Tick> &done)
                    -> Task<> {
            co_await bus.transfer(100);
            done.push_back(s.now());
        }(s, bus, done));
    }
    s.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 1000u);
    EXPECT_EQ(done[1], 2000u);
    EXPECT_EQ(done[2], 3000u);
    EXPECT_EQ(bus.busyTime(), 3000u);
}

TEST(Bus, RejectsNonPositiveBandwidth)
{
    Simulator s;
    EXPECT_THROW(Bus(s.queue(), 0.0, "z"), FatalError);
}

TEST(Bus, OccupancyMatchesObservedTime)
{
    Simulator s;
    Bus bus(s.queue(), 25.0, "b");
    Tick expect = bus.occupancy(4096, 1500);
    s.spawn([](Simulator &s, Bus &bus, Tick expect) -> Task<> {
        Tick t0 = s.now();
        co_await bus.transfer(4096, 1500);
        EXPECT_EQ(s.now() - t0, expect);
    }(s, bus, expect));
    s.runAll();
}

} // namespace
} // namespace shrimp::sim

namespace shrimp::sim
{
namespace
{

TEST(TaskSemantics, MoveTransfersOwnership)
{
    Simulator s;
    auto make = [](Simulator &s) -> Task<int> {
        co_await Delay{s.queue(), 5};
        co_return 9;
    };
    Task<int> a = make(s);
    EXPECT_TRUE(a.valid());
    Task<int> b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    int got = 0;
    s.spawn([](Task<int> t, int &got) -> Task<> {
        got = co_await std::move(t);
    }(std::move(b), got));
    s.runAll();
    EXPECT_EQ(got, 9);
}

TEST(TaskSemantics, UnawaitedTaskNeverRuns)
{
    bool ran = false;
    {
        auto t = [](bool &ran) -> Task<> {
            ran = true;
            co_return;
        }(ran);
        // dropped without being awaited or spawned
    }
    EXPECT_FALSE(ran);
}

TEST(TaskSemantics, StartedDaemonErrorIsInspectable)
{
    Simulator s;
    auto t = []() -> Task<> {
        panic("stored not thrown");
        co_return;
    }();
    t.start(); // runs to completion, exception stored in the promise
    EXPECT_TRUE(t.done());
    EXPECT_NE(t.error(), nullptr);
}

TEST(TaskSemantics, MoveAssignReleasesOldFrame)
{
    auto mk = [](int v) -> Task<int> { co_return v; };
    Task<int> a = mk(1);
    Task<int> b = mk(2);
    a = std::move(b); // old frame of a destroyed; a now holds b's
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(b.valid());
}

// ---- event-core fast path (timing wheel + node pool) -------------------

TEST(EventQueueCore, WheelAndOverflowHeapInterleaveInExactOrder)
{
    EventQueue q;
    // Deterministic scramble spanning several wheel horizons
    // (wheelTicks = 4096): wheel and overflow-heap residents must pop
    // in bit-exact (when, schedule-order) order.
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<std::pair<Tick, int>> fired;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Tick when = Tick((x >> 33) % (EventQueue::wheelTicks * 5));
        q.schedule(when, [&fired, when, i] { fired.push_back({when, i}); });
        scheduled.push_back({when, i});
    }
    q.run();
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, scheduled);
}

TEST(EventQueueCore, SameBucketDifferentEpochOrdersByTime)
{
    EventQueue q;
    // All three land on the same wheel index (when mod 4096) but in
    // different epochs; later epochs must wait in the overflow heap.
    std::vector<int> order;
    q.schedule(10 + 2 * EventQueue::wheelTicks, [&] { order.push_back(2); });
    q.schedule(10, [&] { order.push_back(0); });
    q.schedule(10 + EventQueue::wheelTicks, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_GT(q.heapScheduled(), 0u);
}

TEST(EventQueueCore, SteadyStateSchedulingReusesPooledNodes)
{
    EventQueue q;
    int fired = 0;
    std::uint64_t after_first = 0;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 1000; ++i)
            q.scheduleIn(Tick(1 + i % 7), [&fired] { ++fired; });
        q.run();
        if (round == 0)
            after_first = q.nodesAllocated();
        else
            EXPECT_EQ(q.nodesAllocated(), after_first)
                << "round " << round << " grew the node pool";
    }
    EXPECT_EQ(fired, 5000);
    EXPECT_EQ(q.heapCallables(), 0u); // small captures stay inline
}

TEST(EventQueueCore, OversizedCallableFallsBackToHeapAndCounts)
{
    EventQueue q;
    std::array<std::uint64_t, 16> big{}; // 128 bytes > inline 48
    big[15] = 7;
    std::uint64_t got = 0;
    q.schedule(1, [big, &got] { got = big[15]; });
    EXPECT_EQ(q.heapCallables(), 1u);
    q.run();
    EXPECT_EQ(got, 7u);
}

TEST(FrameArena, RecyclesCoroutineFrames)
{
    auto before = detail::FrameArena::stats();
    Simulator s;
    for (int i = 0; i < 50; ++i) {
        s.spawn([](Simulator &s) -> Task<> {
            co_await Delay{s.queue(), 1};
        }(s));
        s.runAll();
    }
    auto after = detail::FrameArena::stats();
    // Identical frame shapes every iteration: after the first spawn the
    // arena serves every frame from a free list.
    EXPECT_GE(after.reused - before.reused, 50u);
    EXPECT_LE(after.carved - before.carved, 4u);
}

// ---- integer-ns occupancy: pin the calibrated bus rates ----------------

TEST(Bus, OccupancyPinsCalibratedConfigs)
{
    Simulator s;
    // The three bus rates the machine model instantiates (config.hh):
    // EISA DMA 24.5 MB/s, mesh link 175 MB/s, Ethernet 1 MB/s. Values
    // are ceil(bytes * 1e9 / bytesPerSec) exactly; a change to the
    // rounding rule shifts every simulated figure, so pin them.
    Bus eisa(s.queue(), 24.5, "pin_eisa");
    Bus link(s.queue(), 175.0, "pin_link");
    Bus ether(s.queue(), 1.0, "pin_ether");
    EXPECT_EQ(eisa.occupancy(4096), 167184u);        // 167183.67.. up
    EXPECT_EQ(eisa.occupancy(512, 1600), 22498u);    // setup + 20897.96..
    EXPECT_EQ(eisa.occupancy(49), 2000u);            // exact: no round-up
    EXPECT_EQ(link.occupancy(528), 3018u);           // 3017.14.. up
    EXPECT_EQ(link.occupancy(16), 92u);              // 91.43.. up
    EXPECT_EQ(link.occupancy(0, 100), 100u);         // zero bytes: setup
    EXPECT_EQ(ether.occupancy(1500), 1'500'000u);    // exact
}

TEST(ChannelStress, ManyProducersOneConsumerFifoPerProducer)
{
    Simulator s;
    Channel<std::pair<int, int>> ch(s.queue());
    const int producers = 5, per = 40;
    for (int p = 0; p < producers; ++p) {
        s.spawn([](Simulator &s, Channel<std::pair<int, int>> &ch, int p,
                   int per) -> Task<> {
            for (int i = 0; i < per; ++i) {
                co_await Delay{s.queue(), Tick(1 + (p * 7 + i) % 13)};
                ch.send({p, i});
            }
        }(s, ch, p, per));
    }
    std::vector<int> next(producers, 0);
    s.spawn([](Channel<std::pair<int, int>> &ch, std::vector<int> &next,
               int total) -> Task<> {
        for (int k = 0; k < total; ++k) {
            auto [p, i] = co_await ch.recv();
            EXPECT_EQ(i, next[p]) << "producer " << p;
            ++next[p];
        }
    }(ch, next, producers * per));
    s.runAll();
    for (int p = 0; p < producers; ++p)
        EXPECT_EQ(next[p], per);
}

} // namespace
} // namespace shrimp::sim
