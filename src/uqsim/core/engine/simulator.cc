#include "uqsim/core/engine/simulator.h"

#include <stdexcept>

#include "uqsim/snapshot/snapshot.h"

namespace uqsim {

const char*
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Drained: return "drained";
      case StopReason::TimeLimit: return "time-limit";
      case StopReason::EventLimit: return "event-limit";
    }
    return "?";
}

Simulator::Simulator(std::uint64_t master_seed) : masterSeed_(master_seed)
{
}

random::RngStream
Simulator::makeStream(const std::string& label) const
{
    return random::RngStream(masterSeed_, label);
}

void
Simulator::throwSchedulePast(SimTime when) const
{
    throw std::logic_error(
        "cannot schedule event in the past: event at " +
        formatSimTime(when) + ", now " + formatSimTime(now_));
}

void
Simulator::throwNegativeDelay()
{
    throw std::logic_error("cannot schedule with negative delay");
}

void
Simulator::digestEvent(std::uint64_t when, std::uint64_t sequence)
{
    // FNV-1a over the 16 bytes of (when, sequence), one byte at a
    // time so the digest is identical on every platform regardless
    // of endianness conventions in wider folds.
    constexpr std::uint64_t kPrime = 0x100000001B3ULL;
    std::uint64_t h = traceDigest_;
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((when >> (8 * i)) & 0xFF)) * kPrime;
    }
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((sequence >> (8 * i)) & 0xFF)) * kPrime;
    }
    traceDigest_ = h;
}

std::uint64_t
Simulator::stateFingerprint() const
{
    std::uint64_t x = static_cast<std::uint64_t>(now_) ^
                      queue_.pendingStateHash();
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

EventQueue::FiredEvent
Simulator::popChosen()
{
    // The cap bounds the tie scan; choose() applies it again.
    const int cap = chooser_->maxChoices(ChoiceKind::EventTie);
    const std::size_t group =
        cap > 1 ? queue_.tieGroupSize(static_cast<std::size_t>(cap)) : 1;
    return queue_.popTie(static_cast<std::size_t>(choose(
        ChoiceKind::EventTie, static_cast<int>(group), "event-tie")));
}

void
Simulator::foldState(snapshot::Digest& digest) const
{
    digest.i64(now_);
    digest.u64(masterSeed_);
    digest.u64(executedEvents_);
    digest.u64(traceDigest_);
    queue_.foldState(digest);
}

audit::AuditReport
Simulator::auditEngine() const
{
    audit::AuditReport report;
    report.violations = queue_.auditCheck();
    return report;
}

StopReason
Simulator::run(SimTime until, std::uint64_t max_events)
{
    return runLoop(until, max_events, /*clamp_clock=*/true);
}

StopReason
Simulator::runSegment(SimTime until, std::uint64_t max_events)
{
    return runLoop(until, max_events, /*clamp_clock=*/false);
}

StopReason
Simulator::runLoop(SimTime until, std::uint64_t max_events,
                   bool clamp_clock)
{
    const bool auditing = audit::auditModeEnabled();
    while (true) {
        if (max_events != 0 && executedEvents_ >= max_events)
            return StopReason::EventLimit;
        if (control_ != nullptr &&
            executedEvents_ % kControlPollEvents == 0) {
            control_->poll(executedEvents_, now_);
        }
        const SimTime next = queue_.nextTime();
        if (next == kSimTimeMax)
            return StopReason::Drained;
        if (next > until) {
            // A segment boundary must not move the clock: a restored
            // run replays by event count, which leaves the clock at
            // the last fired event.  Only the final (non-segment)
            // run clamps to the horizon.
            if (clamp_clock)
                now_ = until;
            return StopReason::TimeLimit;
        }
        if (auditing && next < now_) {
            throw EngineInvariantError(
                "clock would run backwards: next event at " +
                formatSimTime(next) + ", now " +
                formatSimTime(now_));
        }
        EventQueue::FiredEvent event =
            chooser_ == nullptr ? queue_.pop() : popChosen();
        now_ = event.when();
        if (logger_.enabled(LogLevel::Trace))
            logger_.log(LogLevel::Trace, now_, "engine",
                        std::string("fire ") + event.label());
        digestEvent(static_cast<std::uint64_t>(event.when()),
                    event.sequence());
        event.invoke();
        ++executedEvents_;
    }
}

}  // namespace uqsim
