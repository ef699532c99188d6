#ifndef UQSIM_CORE_ENGINE_CHOICE_H_
#define UQSIM_CORE_ENGINE_CHOICE_H_

/**
 * @file
 * Schedule choice points: the engine-side hook the schedule-space
 * explorer (src/uqsim/explore/) drives.
 *
 * A deterministic simulation resolves several kinds of "don't care"
 * nondeterminism by fixed tie-breaking: events sharing a timestamp
 * fire in scheduling order, fault windows open exactly at their
 * scripted onset, and retry/hedge timers fire exactly at their
 * nominal delay.  Real systems do not honor those tie-breaks, and
 * metastable failures (retry storms, breaker flapping) often hide in
 * the schedules the default order never visits.
 *
 * A Chooser attached to a Simulator turns each such tie-break into an
 * explicit *choice point*: the engine (or the fault scheduler, or the
 * dispatcher's resilience timers) asks the chooser to pick one of a
 * small set of options.  The engine stays fully deterministic given
 * the sequence of answers, so any schedule can be replayed exactly.
 *
 * Default-path contract: with no chooser attached (the normal case)
 * none of these hooks fire — the hot path pays one predictable
 * null-pointer branch per event and nothing else, and every trace
 * digest is bit-identical to pre-explorer builds.  A chooser that
 * always answers 0 must also reproduce the default schedule exactly:
 * option 0 of every choice point is defined as "what the engine would
 * have done anyway".
 */

#include <limits>
#include <string>

#include "uqsim/core/engine/sim_time.h"

namespace uqsim {

class Simulator;

/** What kind of nondeterminism a choice point perturbs. */
enum class ChoiceKind {
    /** Which of the events tied at the earliest timestamp fires
     *  next.  Option k = the event with the (k+1)-th smallest
     *  sequence number in the tie group; option 0 is the default
     *  order. */
    EventTie,
    /** Fault-window onset: the whole window (crash, slow, network,
     *  or stochastic-crash timeline) shifts later by
     *  chosen * jitterStep. */
    FaultJitter,
    /** Resilience timer nudge: a retry timeout, hedge, or backoff
     *  resend timer fires chosen * jitterStep later than nominal. */
    TimerNudge,
    /** Which surviving backup route a failed-over transfer takes.
     *  Option k = the (k+1)-th surviving candidate in installation
     *  order; option 0 is the deterministic default (first
     *  survivor).  Only fires when >= 2 candidates survive. */
    RouteFailover,
};

/** Stable lowercase name ("event_tie", "fault_jitter",
 *  "timer_nudge", "route_failover"); used in schedule files. */
const char* choiceKindName(ChoiceKind kind);

/** Inverse of choiceKindName; throws std::invalid_argument on an
 *  unknown name. */
ChoiceKind choiceKindFromName(const std::string& name);

/**
 * Decision oracle for one run.  Attached to a Simulator with
 * setChooser(); the engine, fault scheduler, and dispatcher consult
 * it at every choice point.  Implementations live in
 * src/uqsim/explore/ (recording DFS chooser, strict replay chooser).
 */
class Chooser {
  public:
    /** Option count of a site with no count of its own (the jitter
     *  kinds): Simulator::choose() then offers maxChoices() options. */
    static constexpr int kUncapped = std::numeric_limits<int>::max();

    virtual ~Chooser() = default;

    /** Called by Simulator::setChooser so state fingerprints can be
     *  taken at decision time. */
    virtual void attach(Simulator& sim) = 0;

    /**
     * Picks one of [0, options) at a choice point; only called when
     * options >= 2.  @p label names the site (string literal) for
     * schedule-file readability.
     */
    virtual int choose(ChoiceKind kind, int options,
                       const char* label) = 0;

    /**
     * Branching cap for @p kind.  <= 1 disables the choice point
     * entirely (the site takes the default without calling
     * choose()).  For EventTie this caps how many tied events are
     * considered; for the jitter kinds it is the number of discrete
     * onsets/nudges explored.
     */
    virtual int maxChoices(ChoiceKind kind) const = 0;

    /** Time shift applied per chosen step for the jitter kinds
     *  (ignored for EventTie). */
    virtual SimTime jitterStep(ChoiceKind kind) const = 0;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_ENGINE_CHOICE_H_
