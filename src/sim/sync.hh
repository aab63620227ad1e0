/**
 * @file
 * Synchronization primitives for simulated tasks: Condition (broadcast
 * wakeup), Semaphore (FIFO, counting), and Channel<T> (typed FIFO queue
 * with blocking receive).
 * All wakeups are routed through the EventQueue so execution order stays
 * deterministic.
 */

#ifndef SHRIMP_SIM_SYNC_HH
#define SHRIMP_SIM_SYNC_HH

#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

namespace shrimp::sim
{

/**
 * Broadcast condition: tasks wait(); notifyAll() wakes every current
 * waiter at the present tick. There is no predicate tracking, so waiters
 * must loop: while (!ready()) co_await cond.wait();
 */
class Condition
{
  public:
    explicit Condition(EventQueue &queue) : queue_(queue) {}

    struct WaitAwaiter
    {
        Condition &cond;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            cond.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    /** Suspend until the next notifyAll(). */
    WaitAwaiter wait() { return WaitAwaiter{*this}; }

    /** Wake all current waiters (they resume at the current tick, in
     *  the order they began waiting). */
    void notifyAll();

    std::size_t numWaiters() const { return waiters_.size(); }

  private:
    EventQueue &queue_;
    std::vector<std::coroutine_handle<>> waiters_;
    std::vector<std::coroutine_handle<>> scratch_; //!< see notifyAll()
};

/**
 * Counting semaphore with FIFO handoff: release() passes ownership
 * directly to the oldest waiter, preserving arrival order.
 */
class Semaphore
{
  public:
    Semaphore(EventQueue &queue, std::size_t initial)
        : queue_(queue), count_(initial)
    {}

    struct AcquireAwaiter
    {
        Semaphore &sem;

        bool
        await_ready()
        {
            if (sem.count_ > 0) {
                --sem.count_;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sem.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    /** Take one unit, waiting if none is available. */
    AcquireAwaiter acquire() { return AcquireAwaiter{*this}; }

    /** Return one unit, handing it to the oldest waiter if any. */
    void release();

    std::size_t available() const { return count_; }
    std::size_t numWaiters() const { return waiters_.size(); }

  private:
    EventQueue &queue_;
    std::size_t count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/** Typed FIFO message queue with blocking receive. */
template <typename T>
class Channel
{
  public:
    explicit Channel(EventQueue &queue) : cond_(queue) {}

    /** Enqueue an item and wake any blocked receivers. */
    void
    send(T item)
    {
        items_.push_back(std::move(item));
        cond_.notifyAll();
    }

    /** Dequeue the oldest item, waiting for one if the queue is empty. */
    Task<T>
    recv()
    {
        while (items_.empty())
            co_await cond_.wait();
        T item = std::move(items_.front());
        items_.pop_front();
        co_return item;
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

  private:
    std::deque<T> items_;
    Condition cond_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_SYNC_HH
