/**
 * @file
 * Cross-node timing fixtures: one seeded violation and one near-miss
 * negative per rule (see test_analyze.cc for the expected findings).
 *
 *  - cross-node-deliver-uncharged: Lane::shove makes a deliver effect
 *    visible before charging; shoveCharged pays first, and Lane::loop
 *    reaches Lane::land's effect only through an exempt call edge.
 *    Fabric::push reaches Sink::take's effect through a subscripted
 *    receiver (`sinks_[i]->take(...)`) before charging; pushCharged
 *    pays first.
 *  - cross-node-wake-uncharged: Hub::route wakes a waiter it received
 *    by reference with nothing charged yet; Hub::flush charges first,
 *    and waking a *member* condition is never cross-node.
 *  - zero-delay-cycle: Ticker::arm reschedules itself with a provably
 *    zero delay; rearm uses a positive delay and Ticker::kick's
 *    zero-delay target never cycles back.
 */

#include "sim/tasks.hh"

namespace shrimpfix
{

class LaBus
{
  public:
    Task<> transfer(int bytes, int latency);
};

class LaPort
{
  public:
    void send(int v);
};

class LaCond
{
  public:
    void notifyAll();
};

class LaQueue
{
  public:
    void scheduleIn(int when, int thunk);
};

class Lane
{
  public:
    Task<> shove();
    Task<> shoveCharged();
    Task<> loop();
    void land();

  private:
    LaBus bus_;
    LaPort out_;
};

class Sink
{
  public:
    void take(int v);

  private:
    LaPort out_;
};

class Fabric
{
  public:
    Task<> push(int i);
    Task<> pushCharged(int i);

  private:
    LaBus bus_;
    std::vector<std::unique_ptr<Sink>> sinks_;
};

class Hub
{
  public:
    Task<> route(LaCond &peer);
    Task<> flush(LaCond &peer);

  private:
    LaBus bus_;
    LaCond done_;
};

class Ticker
{
  public:
    void arm();
    void rearm();
    void kick();
    void fire();

  private:
    LaQueue queue_;
};

// analyze: cross-node-entry
Task<>
Lane::shove()
{
    // analyze: cross-node-deliver — seeded: visible at 0 charge.
    out_.send(1);
    co_await bus_.transfer(64, 40);
}

// analyze: cross-node-entry
Task<>
Lane::shoveCharged()
{
    co_await bus_.transfer(64, 40);
    // analyze: cross-node-deliver — negative: charged already.
    out_.send(2);
}

// analyze: cross-node-entry
Task<>
Lane::loop()
{
    // analyze: cross-node-exempt(loopback: the packet stays on-node)
    land();
    co_await bus_.transfer(64, 40);
}

void
Lane::land()
{
    // analyze: cross-node-deliver — negative: reached only through the
    // exempt edge in Lane::loop.
    out_.send(3);
}

void
Sink::take(int v)
{
    // analyze: cross-node-deliver — visible to the sink's node.
    out_.send(v);
}

// analyze: cross-node-entry
Task<>
Fabric::push(int i)
{
    sinks_[i]->take(i); // seeded: subscripted receiver, 0 charge
    co_await bus_.transfer(64, 40);
}

// analyze: cross-node-entry
Task<>
Fabric::pushCharged(int i)
{
    co_await bus_.transfer(64, 40);
    sinks_[i]->take(i); // negative: a full transfer is charged first
}

// analyze: cross-node-entry
Task<>
Hub::route(LaCond &peer)
{
    peer.notifyAll(); // seeded: foreign waiter woken at 0 charge
    done_.notifyAll(); // negative: member condition, never cross-node
    co_await bus_.transfer(64, 40);
}

// analyze: cross-node-entry
Task<>
Hub::flush(LaCond &peer)
{
    co_await bus_.transfer(64, 40);
    peer.notifyAll(); // negative: a full transfer is charged first
}

void
Ticker::arm()
{
    queue_.scheduleIn(0, [this] { arm(); }); // seeded: zero-delay cycle
}

void
Ticker::rearm()
{
    queue_.scheduleIn(50, [this] { rearm(); }); // negative: +50 ticks
}

void
Ticker::kick()
{
    queue_.scheduleIn(0, [this] { fire(); }); // negative: no cycle back
}

void
Ticker::fire()
{
}

} // namespace shrimpfix
