#ifndef UQSIM_CORE_ENGINE_SIMULATOR_H_
#define UQSIM_CORE_ENGINE_SIMULATOR_H_

/**
 * @file
 * Discrete-event simulation driver.
 *
 * The simulator owns the clock, the event queue, the master random
 * seed, and the logger.  Every simulation cycle it pops the earliest
 * event, advances the clock to that event's timestamp, and executes
 * it; executing an event typically schedules causally dependent
 * events (paper §III-A, Fig. 2).  Simulation completes when no
 * events remain or a stop condition triggers.
 */

#include <cstdint>
#include <string>
#include <utility>

#include "uqsim/core/engine/audit.h"
#include "uqsim/core/engine/choice.h"
#include "uqsim/core/engine/event.h"
#include "uqsim/core/engine/event_queue.h"
#include "uqsim/core/engine/logger.h"
#include "uqsim/core/engine/run_control.h"
#include "uqsim/core/engine/sim_time.h"
#include "uqsim/random/rng.h"

namespace uqsim {

namespace snapshot {
class Digest;
}  // namespace snapshot

/** Why Simulator::run() returned. */
enum class StopReason {
    Drained,       ///< no outstanding events remained
    TimeLimit,     ///< the until-time was reached
    EventLimit,    ///< the event-count limit was reached
    Stopped,       ///< Simulator::stop() was called from an event
};

const char* stopReasonName(StopReason reason);

/** Event-driven simulation kernel. */
class Simulator {
  public:
    /** @param master_seed  seed from which all RNG streams derive. */
    explicit Simulator(std::uint64_t master_seed = 1);

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulation time. */
    SimTime now() const { return now_; }

    /** Master seed (used to derive component streams). */
    std::uint64_t masterSeed() const { return masterSeed_; }

    /** Creates an independently seeded stream for @p label. */
    random::RngStream makeStream(const std::string& label) const;

    /**
     * Schedules a callback at absolute time @p when (>= now).
     * @p label must outlive the event (string literal or stable
     * member); it is shown by the trace logger.
     */
    template <typename F>
    EventHandle
    scheduleAt(SimTime when, F&& callback,
               const char* label = "callback")
    {
        if (when < now_)
            throwSchedulePast(when);
        return queue_.schedule(when, std::forward<F>(callback), label);
    }

    /** Schedules a callback @p delay after the current time. */
    template <typename F>
    EventHandle
    scheduleAfter(SimTime delay, F&& callback,
                  const char* label = "callback")
    {
        if (delay < 0)
            throwNegativeDelay();
        return queue_.schedule(now_ + delay,
                               std::forward<F>(callback), label);
    }

    /**
     * Moves @p handle's pending event to absolute time @p when
     * (>= now, checked as scheduleAt() checks it, before anything
     * changes).  See EventQueue::rekey: the result is cancel() plus
     * scheduleAt() of the same action, minus the closure rebuild.
     * Returns false, changing nothing, when the event is not pending.
     */
    bool
    rekeyAt(EventHandle& handle, SimTime when)
    {
        if (when < now_)
            throwSchedulePast(when);
        return queue_.rekey(handle, when);
    }

    /**
     * Runs until the queue drains, time exceeds @p until, more than
     * @p max_events fire, or stop() is called.
     *
     * Events scheduled exactly at @p until still fire; the first
     * event strictly after @p until ends the run with the clock left
     * at @p until.
     */
    StopReason run(SimTime until = kSimTimeMax,
                   std::uint64_t max_events = 0);

    /**
     * run() variant for segmented (checkpointed) execution: identical
     * event-for-event, except that reaching @p until does NOT clamp
     * the clock forward to @p until — the clock stays at the last
     * fired event.  That makes running in segments bit-identical to a
     * straight run: only the *final* run() of a simulation performs
     * the end-of-horizon clamp.  @p max_events is an absolute
     * executed-event threshold, like run()'s.
     */
    StopReason runSegment(SimTime until = kSimTimeMax,
                          std::uint64_t max_events = 0);

    /** Requests the active run() to return after the current event. */
    void stop() { stopRequested_ = true; }

    /** Number of events executed so far. */
    std::uint64_t executedEvents() const { return executedEvents_; }

    /**
     * Running FNV-1a digest of the executed event trace: every fired
     * event folds (when, sequence) into the hash.  Two runs with the
     * same seed and configuration must produce the same digest on
     * every platform; the determinism regression tests rely on this.
     */
    std::uint64_t traceDigest() const { return traceDigest_; }

    EventQueue& queue() { return queue_; }
    Logger& logger() { return logger_; }

    /**
     * Attaches a run control (nullptr detaches).  While attached,
     * run() calls RunControl::poll() before the first event and every
     * kControlPollEvents events after, which throws
     * SimulationAbortError between events on an abort request or an
     * exhausted limit (run_control.h).  The event budget is checked
     * at poll granularity, so it is deterministic for a given event
     * stream.
     */
    void setRunControl(RunControl* control) { control_ = control; }

    /**
     * Audits engine invariants now: event-heap ordering, slot
     * back-pointers, and pool accounting (see
     * EventQueue::auditCheck).  Cheap relative to a run; called by
     * the simulation-level auditor and the harness abort path.
     */
    audit::AuditReport auditEngine() const;

    /**
     * Attaches a schedule chooser (nullptr detaches).  While
     * attached, same-timestamp event pops become choice points (see
     * choice.h), and the fault scheduler / dispatcher consult the
     * chooser for onset-jitter and timer-nudge decisions.  With no
     * chooser the run loop pays one predictable branch per event and
     * behaves bit-identically to pre-explorer builds.  Attach before
     * Simulation::finalize() so fault-plan choice points are seen.
     */
    void
    setChooser(Chooser* chooser)
    {
        chooser_ = chooser;
        if (chooser_ != nullptr)
            chooser_->attach(*this);
    }
    Chooser* chooser() const { return chooser_; }

    /**
     * Approximate state fingerprint for the explorer's revisit
     * pruning: the clock combined with the order-insensitive hash of
     * the pending-event multiset.  Two equal fingerprints *probably*
     * name equivalent states (the fingerprint ignores component
     * state, so the explorer treats collisions as prune hints, not
     * proofs).
     */
    std::uint64_t stateFingerprint() const;

    /** Events between RunControl polls; an abort or exhausted limit
     *  ends the run within this many events. */
    static constexpr std::uint64_t kControlPollEvents = 1024;

    /**
     * Folds the ENGINE layer into @p digest: clock, master seed,
     * executed-event count, trace digest, then the event queue's
     * pool/heap state (snapshot.h).  Must be called between events.
     */
    void foldState(snapshot::Digest& digest) const;

  private:
    StopReason runLoop(SimTime until, std::uint64_t max_events,
                       bool clamp_clock);
    void digestEvent(std::uint64_t when, std::uint64_t sequence);
    [[noreturn]] void throwSchedulePast(SimTime when) const;
    [[noreturn]] static void throwNegativeDelay();

    /** Pops the next event through the attached chooser: a tie at
     *  the earliest timestamp becomes an EventTie choice point. */
    EventQueue::FiredEvent popChosen();

    SimTime now_ = 0;
    std::uint64_t masterSeed_;
    EventQueue queue_;
    Logger logger_;
    RunControl* control_ = nullptr;
    Chooser* chooser_ = nullptr;
    bool stopRequested_ = false;
    std::uint64_t executedEvents_ = 0;
    std::uint64_t traceDigest_ = 0xCBF29CE484222325ULL;  // FNV offset
};

}  // namespace uqsim

#endif  // UQSIM_CORE_ENGINE_SIMULATOR_H_
