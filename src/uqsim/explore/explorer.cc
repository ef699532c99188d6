#include "uqsim/explore/explorer.h"

#include <deque>
#include <unordered_set>
#include <utility>

#include "uqsim/explore/choosers.h"
#include "uqsim/runner/run_journal.h"

namespace uqsim {
namespace explore {

namespace {

/** Mixes (state fingerprint, kind, option) into one prune key. */
std::uint64_t
pruneKey(std::uint64_t fingerprint, ChoiceKind kind, int option)
{
    std::uint64_t x = fingerprint;
    x ^= (static_cast<std::uint64_t>(kind) << 32) ^
         static_cast<std::uint64_t>(static_cast<unsigned>(option));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

runner::JournalEntry
journalEntry(const std::string& sweep, const ScheduleOutcome& outcome)
{
    runner::JournalEntry entry;
    entry.sweep = sweep;
    entry.point = outcome.index;
    entry.replication = 0;
    entry.qps = outcome.report.offeredQps;
    entry.seed = 0;
    if (outcome.status != runner::FailureKind::None) {
        entry.status = outcome.status;
        entry.error = outcome.error;
        return entry;
    }
    if (outcome.violated()) {
        // User invariants reuse the harness taxonomy: a violated
        // schedule journals as an invariant failure so resumed or
        // post-processed journals triage it like any other.
        entry.status = runner::FailureKind::InvariantViolation;
        entry.error = outcome.violation;
    }
    entry.traceDigest = outcome.digest;
    entry.achievedQps = outcome.report.achievedQps;
    entry.meanMs = outcome.report.endToEnd.meanMs;
    entry.p50Ms = outcome.report.endToEnd.p50Ms;
    entry.p95Ms = outcome.report.endToEnd.p95Ms;
    entry.p99Ms = outcome.report.endToEnd.p99Ms;
    entry.maxMs = outcome.report.endToEnd.maxMs;
    entry.completed = outcome.report.completed;
    entry.generated = outcome.report.generated;
    entry.events = outcome.report.events;
    return entry;
}

}  // namespace

const ScheduleOutcome*
ExploreResult::firstViolation() const
{
    for (const ScheduleOutcome& outcome : outcomes) {
        if (outcome.violated())
            return &outcome;
    }
    return nullptr;
}

Explorer::Explorer(Factory factory, ExploreOptions options)
    : factory_(std::move(factory)), options_(std::move(options))
{
}

void
Explorer::addInvariant(Invariant invariant)
{
    invariants_.push_back(std::move(invariant));
}

ScheduleOutcome
Explorer::runWith(Chooser& chooser, std::size_t index)
{
    ScheduleOutcome outcome;
    outcome.index = index;

    // A fresh control per schedule: aborts are sticky, so a budget
    // abort must not poison the next schedule.  An external control
    // is shared on purpose: its abort ends the whole loop.
    RunControl localControl(RunLimits{options_.maxEventsPerSchedule});
    RunControl* control = options_.control != nullptr
                              ? options_.control
                              : &localControl;

    std::unique_ptr<Simulation> sim;
    std::vector<double> completionSeconds;
    try {
        sim = factory_(chooser);
        if (!sim || !sim->finalized()) {
            throw std::logic_error(
                "explorer factory must return a finalized "
                "Simulation with the chooser attached");
        }
        if (sim->sim().chooser() != &chooser) {
            throw std::logic_error(
                "explorer factory did not attach the chooser "
                "(call sim().setChooser() before finalize())");
        }
        sim->setRunControl(control);
        Simulation* raw = sim.get();
        sim->setCompletionListener(
            [raw, &completionSeconds](const Job&, double) {
                completionSeconds.push_back(
                    simTimeToSeconds(raw->sim().now()));
            });
        outcome.report = sim->run();
        outcome.digest = raw->sim().traceDigest();
    } catch (...) {
        outcome.status = runner::classifyException(
            std::current_exception(), &outcome.error,
            sim ? &sim->sim() : nullptr);
        if (sim)
            outcome.digest = sim->sim().traceDigest();
        return outcome;
    }

    const InvariantContext ctx{outcome.report, *sim,
                               completionSeconds};
    for (const Invariant& invariant : invariants_) {
        const std::string message = invariant.check(ctx);
        if (!message.empty()) {
            outcome.violation = invariant.name + ": " + message;
            break;
        }
    }
    return outcome;
}

ScheduleOutcome
Explorer::runPrefix(const std::vector<int>& prefix)
{
    RecordingChooser chooser(options_.limits, prefix);
    ScheduleOutcome outcome = runWith(chooser, 0);
    outcome.decisions = chooser.decisions();
    outcome.fingerprints = chooser.fingerprints();
    outcome.truncatedDecisions = chooser.truncatedDecisions();
    return outcome;
}

ScheduleOutcome
Explorer::replay(const Schedule& schedule)
{
    ReplayChooser chooser(schedule);
    ScheduleOutcome outcome = runWith(chooser, 0);
    outcome.decisions = schedule.choices;
    if (chooser.divergences() != 0 && outcome.error.empty()) {
        outcome.error = std::to_string(chooser.divergences()) +
                        " decision(s) diverged from the schedule";
    }
    return outcome;
}

Schedule
Explorer::makeSchedule(const ScheduleOutcome& outcome) const
{
    Schedule schedule;
    schedule.limits = options_.limits;
    schedule.choices = outcome.decisions;
    schedule.expectedDigest = outcome.digest;
    schedule.violation = outcome.violation;
    return schedule;
}

ExploreResult
Explorer::explore()
{
    ExploreResult result;
    std::unique_ptr<runner::JournalWriter> journal;
    if (!options_.journalPath.empty()) {
        journal = std::make_unique<runner::JournalWriter>(
            options_.journalPath);
    }

    std::deque<std::vector<int>> frontier;
    frontier.push_back({});  // the all-defaults schedule
    std::unordered_set<std::uint64_t> enqueued;
    bool scheduleWritten = false;

    while (!frontier.empty() &&
           result.schedulesRun < options_.maxSchedules) {
        if (options_.control != nullptr &&
            options_.control->abortRequested() !=
                AbortReason::None &&
            result.schedulesRun > 0) {
            result.aborted = true;
            break;
        }
        std::vector<int> prefix;
        if (options_.depthFirst) {
            prefix = std::move(frontier.back());
            frontier.pop_back();
        } else {
            prefix = std::move(frontier.front());
            frontier.pop_front();
        }

        RecordingChooser chooser(options_.limits, prefix);
        ScheduleOutcome outcome =
            runWith(chooser, result.schedulesRun);
        outcome.decisions = chooser.decisions();
        outcome.fingerprints = chooser.fingerprints();
        outcome.truncatedDecisions = chooser.truncatedDecisions();
        ++result.schedulesRun;
        if (outcome.index == 0)
            result.defaultDigest = outcome.digest;
        if (outcome.violated()) {
            ++result.violations;
            if (!options_.scheduleOutPath.empty() &&
                !scheduleWritten) {
                makeSchedule(outcome).save(options_.scheduleOutPath);
                scheduleWritten = true;
            }
        }
        if (journal)
            journal->append(
                journalEntry(options_.sweepLabel, outcome));

        const bool externallyAborted =
            options_.control != nullptr &&
            options_.control->abortRequested() != AbortReason::None;

        // Expand only decisions first *discovered* by this run (the
        // prefix part was expanded when it was fresh).  Alternatives
        // are pruned when the same (state, kind, option) is already
        // queued or was already run — DPOR-lite.
        if (!externallyAborted &&
            outcome.status == runner::FailureKind::None) {
            for (std::size_t depth = prefix.size();
                 depth < outcome.decisions.size(); ++depth) {
                const Decision& decision = outcome.decisions[depth];
                for (int option = 1; option < decision.options;
                     ++option) {
                    if (option == decision.chosen)
                        continue;
                    if (options_.pruneVisited) {
                        const std::uint64_t key = pruneKey(
                            outcome.fingerprints[depth],
                            decision.kind, option);
                        if (!enqueued.insert(key).second) {
                            ++result.prunedAlternatives;
                            continue;
                        }
                    }
                    std::vector<int> next;
                    next.reserve(depth + 1);
                    for (std::size_t i = 0; i < depth; ++i)
                        next.push_back(outcome.decisions[i].chosen);
                    next.push_back(option);
                    frontier.push_back(std::move(next));
                }
            }
        }

        result.outcomes.push_back(std::move(outcome));
        if (externallyAborted) {
            result.aborted = true;
            break;
        }
    }
    result.frontierLeft = frontier.size();
    return result;
}

Explorer::Factory
bundleFactory(ConfigBundle bundle)
{
    return [bundle](Chooser& chooser) {
        return Simulation::fromBundle(bundle, &chooser);
    };
}

}  // namespace explore
}  // namespace uqsim
