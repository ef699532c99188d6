#ifndef UQSIM_EXPLORE_EXPLORER_H_
#define UQSIM_EXPLORE_EXPLORER_H_

/**
 * @file
 * Schedule-space explorer for resilience policies.
 *
 * The deterministic engine resolves "don't care" nondeterminism by
 * fixed tie-breaking; the explorer systematically perturbs exactly
 * those tie-breaks — same-timestamp event order, fault-window onset
 * jitter, retry/hedge/timeout timer firing order — and checks
 * user-declared invariants over every schedule it visits.
 *
 * Search: stateless model checking over decision prefixes.  Every
 * run starts from the initial state, replays a decision prefix, and
 * defaults afterwards while recording the fresh decisions it meets.
 * Each fresh decision with k options spawns k-1 alternative prefixes
 * onto the frontier.  The frontier is consumed shallowest-first by
 * default so cheap-to-reach alternatives (e.g. fault-window jitter,
 * decided at t=0) are tried before deep tie-break subtrees; a
 * depth-first mode exists for deep bug hunts.  Revisit pruning is
 * DPOR-lite: an alternative is skipped when the same (state
 * fingerprint, kind, option) was already queued — fingerprints hash
 * the clock plus the pending-event multiset, so schedules that
 * merely permuted their way to the same state don't fan out twice.
 *
 * Every schedule runs under the existing deterministic engine, so
 * the run's full behavior is a pure function of its decision list;
 * a violating schedule is emitted as a replayable file
 * (docs/FORMATS.md §"schedule file") that reproduces the failing
 * interleaving bit-identically.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/engine/run_control.h"
#include "uqsim/core/sim/config.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/explore/invariant.h"
#include "uqsim/explore/schedule.h"
#include "uqsim/runner/failure.h"

namespace uqsim {
namespace explore {

/** Search budget and policy knobs. */
struct ExploreOptions {
    /** Choice-point caps / step sizes for every run. */
    ExploreLimits limits;
    /** Total schedules executed (including the default one). */
    std::size_t maxSchedules = 128;
    /** Consume the frontier LIFO (deep subtrees first) instead of
     *  the default FIFO (shallow alternatives first). */
    bool depthFirst = false;
    /** DPOR-lite revisit pruning on (state, kind, option). */
    bool pruneVisited = true;
    /** Abort each schedule after this many events (0 = off);
     *  classified Timeout via the harness taxonomy.  Ignored when
     *  an external control is given. */
    std::uint64_t maxEventsPerSchedule = 0;
    /**
     * External run control, shared by every schedule on purpose: an
     * abort request (e.g. from a Ctrl-C handler) stops the current
     * schedule (Timeout) and ends the exploration loop, and so does
     * any limit it carries, since aborts are sticky.  Null = one
     * fresh explorer-owned control per schedule.
     */
    RunControl* control = nullptr;
    /** Append one runner-journal line per schedule ("" = off). */
    std::string journalPath;
    /** Journal sweep label; the point index is the schedule index. */
    std::string sweepLabel = "explore";
    /** Write the first violating schedule here ("" = off). */
    std::string scheduleOutPath;
};

/** The fate of one explored schedule. */
struct ScheduleOutcome {
    std::size_t index = 0;
    /** Full decision record (replayable). */
    std::vector<Decision> decisions;
    /** State fingerprint before each decision. */
    std::vector<std::uint64_t> fingerprints;
    std::uint64_t digest = 0;
    /** Harness taxonomy: None = ran to completion. */
    runner::FailureKind status = runner::FailureKind::None;
    /** Exception message for failed schedules. */
    std::string error;
    /** "name: message" of the first violated invariant; empty when
     *  all held (only checked when status is None). */
    std::string violation;
    /** Choice points past the maxDecisions cap (took defaults). */
    std::uint64_t truncatedDecisions = 0;
    RunReport report;

    bool violated() const { return !violation.empty(); }
};

/** Aggregate exploration results. */
struct ExploreResult {
    std::size_t schedulesRun = 0;
    std::size_t violations = 0;
    /** Alternatives skipped by revisit pruning. */
    std::size_t prunedAlternatives = 0;
    /** Alternatives still queued when the budget ran out. */
    std::size_t frontierLeft = 0;
    /** True when an external abort ended the loop early. */
    bool aborted = false;
    /** Digest of the all-defaults schedule (index 0). */
    std::uint64_t defaultDigest = 0;
    std::vector<ScheduleOutcome> outcomes;

    const ScheduleOutcome* firstViolation() const;
};

/** Drives the search; one instance per scenario. */
class Explorer {
  public:
    /**
     * Builds one fresh, finalized Simulation per schedule.  The
     * factory must attach @p chooser via sim().setChooser() *before*
     * Simulation::finalize(), because fault-plan choice points fire
     * inside finalize(); Simulation::fromBundle(bundle, &chooser)
     * and bundleFactory() do this correctly.
     */
    using Factory =
        std::function<std::unique_ptr<Simulation>(Chooser& chooser)>;

    Explorer(Factory factory, ExploreOptions options);

    /** Asserted over every schedule that runs to completion. */
    void addInvariant(Invariant invariant);

    /** Runs the search until budget, frontier, or abort ends it. */
    ExploreResult explore();

    /**
     * Runs the single schedule described by a decision prefix
     * (decisions past the prefix take defaults).  The empty prefix
     * is the engine's default schedule.
     */
    ScheduleOutcome runPrefix(const std::vector<int>& prefix);

    /** Replays a saved schedule; the caller compares
     *  outcome.digest with schedule.expectedDigest. */
    ScheduleOutcome replay(const Schedule& schedule);

    /** Renders an outcome as a saveable schedule file. */
    Schedule makeSchedule(const ScheduleOutcome& outcome) const;

  private:
    ScheduleOutcome runWith(Chooser& chooser, std::size_t index);

    Factory factory_;
    ExploreOptions options_;
    std::vector<Invariant> invariants_;
};

/**
 * Factory over a parsed configuration bundle: Simulation::fromBundle
 * with the schedule's chooser, which it attaches before anything
 * loads so FaultJitter choice points in finalize() are seen.
 */
Explorer::Factory bundleFactory(ConfigBundle bundle);

}  // namespace explore
}  // namespace uqsim

#endif  // UQSIM_EXPLORE_EXPLORER_H_
