#include "uqsim/core/engine/run_control.h"

namespace uqsim {

const char*
abortReasonName(AbortReason reason)
{
    switch (reason) {
      case AbortReason::None: return "none";
      case AbortReason::Stall: return "stall";
      case AbortReason::WallTimeout: return "wall-timeout";
      case AbortReason::EventBudget: return "event-budget";
      case AbortReason::External: return "external";
    }
    return "?";
}

void
RunControl::poll(std::uint64_t events, SimTime now)
{
    if (abortRequested() == AbortReason::None) {
        if (limits_.maxEvents != 0 && events >= limits_.maxEvents) {
            requestAbort(AbortReason::EventBudget);
            throw SimulationAbortError(
                AbortReason::EventBudget,
                "executed " + std::to_string(events) +
                    " events, budget " +
                    std::to_string(limits_.maxEvents));
        }
        const AbortReason verdict = clockVerdict(now);
        if (verdict == AbortReason::None)
            return;
        requestAbort(verdict);
    }
    throw SimulationAbortError(abortRequested(),
                               "at t=" + formatSimTime(now) + " after " +
                                   std::to_string(events) + " events");
}

AbortReason
RunControl::clockVerdict(SimTime now)
{
    if (limits_.wallTimeoutSeconds <= 0.0 &&
        limits_.stallWindowSeconds <= 0.0) {
        return AbortReason::None;
    }
    const Clock::time_point wall = Clock::now();
    if (!started_) {
        started_ = true;
        startedAt_ = progressAt_ = wall;
        progressTime_ = now;
        return AbortReason::None;
    }
    const auto since = [wall](Clock::time_point mark) {
        return std::chrono::duration<double>(wall - mark).count();
    };
    if (limits_.wallTimeoutSeconds > 0.0 &&
        since(startedAt_) >= limits_.wallTimeoutSeconds) {
        return AbortReason::WallTimeout;
    }
    // Check before refreshing the mark: a clock that moved only after
    // more than a window of wall time is a stall too.
    if (limits_.stallWindowSeconds > 0.0 &&
        since(progressAt_) >= limits_.stallWindowSeconds) {
        return AbortReason::Stall;
    }
    if (now != progressTime_) {
        progressTime_ = now;
        progressAt_ = wall;
    }
    return AbortReason::None;
}

}  // namespace uqsim
