#include "sim/sync.hh"

#include "check/check.hh"
#include "check/race.hh"

namespace shrimp::sim
{

void
Condition::notifyAll()
{
    // Release edge: whoever notifies publishes its history on this
    // object (tasks resumed later can objAcquire it).
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().objRelease(
        this, check::RaceDetector::instance().currentActor()));
    // Move the list out first: a woken task may wait() again immediately
    // and must not be re-woken by this notification. Swapping with the
    // member scratch buffer (instead of a fresh vector) ping-pongs the
    // two allocations forever instead of reallocating per notify.
    scratch_.clear();
    scratch_.swap(waiters_);
    for (auto h : scratch_) {
        SHRIMP_CHECK_HOOK(
            check::SimChecker::instance().onResumeScheduled(h.address()));
        queue_.scheduleIn(0, [h] {
            SHRIMP_CHECK_HOOK(
                check::SimChecker::instance().onResumeFired(h.address()));
            h.resume();
        });
    }
}

void
Semaphore::release()
{
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().objRelease(
        this, check::RaceDetector::instance().currentActor()));
    if (!waiters_.empty()) {
        auto h = waiters_.front();
        waiters_.pop_front();
        // Ownership of the unit transfers directly to the waiter; the
        // count is not incremented.
        SHRIMP_CHECK_HOOK(
            check::SimChecker::instance().onResumeScheduled(h.address()));
        queue_.scheduleIn(0, [h] {
            SHRIMP_CHECK_HOOK(
                check::SimChecker::instance().onResumeFired(h.address()));
            h.resume();
        });
    } else {
        ++count_;
    }
}

} // namespace shrimp::sim
