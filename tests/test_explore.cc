/**
 * @file
 * Schedule-space explorer tests: engine tie choice points, the
 * option-0 default-equivalence contract, seeded invariant-violation
 * discovery with schedule-file replay, schedule-file round-trips,
 * cooperative aborts mid-explore, and enumeration/budget accounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "uqsim/core/engine/audit.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/explore/choosers.h"
#include "uqsim/explore/explorer.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/runner/run_journal.h"

namespace uqsim {
namespace {

using explore::Decision;
using explore::ExploreLimits;
using explore::ExploreOptions;
using explore::Explorer;
using explore::ExploreResult;
using explore::RecordingChooser;
using explore::Schedule;
using explore::ScheduleOutcome;

// ------------------------------------------ engine tie choice points

/** Runs three same-timestamp events under a tie prefix; returns the
 *  execution order as a string plus the trace digest. */
void
runTieTriple(std::vector<int> prefix, std::string* order,
             std::uint64_t* digest)
{
    ExploreLimits limits;
    limits.maxTieChoices = 4;
    RecordingChooser chooser(limits, std::move(prefix));
    Simulator sim(1);
    sim.setChooser(&chooser);
    order->clear();
    sim.scheduleAt(100, [order]() { order->push_back('a'); }, "a");
    sim.scheduleAt(100, [order]() { order->push_back('b'); }, "b");
    sim.scheduleAt(100, [order]() { order->push_back('c'); }, "c");
    EXPECT_EQ(sim.run(), StopReason::Drained);
    *digest = sim.traceDigest();
    EXPECT_TRUE(sim.auditEngine().violations.empty());
}

TEST(TieChoicePoints, PrefixesEnumerateTieOrders)
{
    std::string order;
    std::uint64_t d_default, d_bac, d_cab, d_cba;
    runTieTriple({}, &order, &d_default);
    EXPECT_EQ(order, "abc");  // option 0 = scheduling order
    runTieTriple({1}, &order, &d_bac);
    EXPECT_EQ(order, "bac");
    runTieTriple({2}, &order, &d_cab);
    EXPECT_EQ(order, "cab");
    runTieTriple({2, 1}, &order, &d_cba);
    EXPECT_EQ(order, "cba");

    // Reordered schedules must be distinguishable by digest.
    EXPECT_NE(d_default, d_bac);
    EXPECT_NE(d_default, d_cba);
    EXPECT_NE(d_bac, d_cab);
}

TEST(TieChoicePoints, NoChooserMatchesAllDefaultChooser)
{
    std::string order;
    std::uint64_t with_chooser;
    runTieTriple({}, &order, &with_chooser);

    Simulator sim(1);
    std::string plain_order;
    sim.scheduleAt(100, [&]() { plain_order.push_back('a'); }, "a");
    sim.scheduleAt(100, [&]() { plain_order.push_back('b'); }, "b");
    sim.scheduleAt(100, [&]() { plain_order.push_back('c'); }, "c");
    EXPECT_EQ(sim.run(), StopReason::Drained);
    EXPECT_EQ(plain_order, order);
    EXPECT_EQ(sim.traceDigest(), with_chooser);
}

TEST(TieChoicePoints, RecordsDecisionsAndFingerprints)
{
    ExploreLimits limits;
    limits.maxTieChoices = 4;
    RecordingChooser chooser(limits, {});
    Simulator sim(1);
    sim.setChooser(&chooser);
    int fired = 0;
    sim.scheduleAt(50, [&]() { ++fired; }, "x");
    sim.scheduleAt(50, [&]() { ++fired; }, "y");
    sim.scheduleAt(50, [&]() { ++fired; }, "z");
    sim.scheduleAt(90, [&]() { ++fired; }, "late");
    EXPECT_EQ(sim.run(), StopReason::Drained);
    EXPECT_EQ(fired, 4);

    // Ties of 3 then 2 events are decisions; the final singletons
    // are not choice points at all.
    ASSERT_EQ(chooser.decisions().size(), 2u);
    EXPECT_EQ(chooser.decisions()[0].options, 3);
    EXPECT_EQ(chooser.decisions()[1].options, 2);
    EXPECT_EQ(chooser.decisions()[0].kind, ChoiceKind::EventTie);
    EXPECT_EQ(chooser.fingerprints().size(), 2u);
    EXPECT_EQ(chooser.truncatedDecisions(), 0u);
}

// ------------------------------------------ seeded 2-tier scenario

/**
 * Front->leaf with a timeout+retry policy and a scripted leaf crash
 * window (0.40 s, 0.50 s).  Under fault-window jitter the window
 * shifts past the nominal recovery point, so goodput fails to
 * recover within the grace period — the seeded violation the
 * explorer must find.
 */
ConfigBundle
retryStormBundle(std::uint64_t seed)
{
    ConfigBundle bundle;
    bundle.options.seed = seed;
    bundle.options.warmupSeconds = 0.1;
    bundle.options.durationSeconds = 1.0;
    bundle.machines = json::parse(
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,)"
        R"( "machines": [)"
        R"( {"name": "front", "cores": 4, "irq_cores": 0},)"
        R"( {"name": "leaf0", "cores": 2, "irq_cores": 0}]})");
    for (const auto& [name, dist] :
         {std::pair<std::string, json::JsonValue>{
              "front", models::detUs(5.0)},
          std::pair<std::string, json::JsonValue>{
              "leaf", models::expUs(100.0)}}) {
        json::JsonValue doc = json::JsonValue::makeObject();
        doc.asObject()["service_name"] = name;
        doc.asObject()["execution_model"] = "simple";
        json::JsonArray stages;
        stages.push_back(models::processingStage(0, "proc", dist));
        doc.asObject()["stages"] = json::JsonValue(std::move(stages));
        json::JsonArray paths;
        paths.push_back(models::pathJson(0, "serve", {0}));
        doc.asObject()["paths"] = json::JsonValue(std::move(paths));
        bundle.services.push_back(std::move(doc));
    }
    bundle.graph = json::parse(
        R"({"services": [)"
        R"( {"service": "front", "connection_pools": {"leaf": 64},)"
        R"(  "policies": {"leaf": {"timeout_s": 0.002, "retries": 2,)"
        R"(   "backoff_base_s": 0.0002}},)"
        R"(  "instances": [{"machine": "front", "threads": 4}]},)"
        R"( {"service": "leaf",)"
        R"(  "instances": [{"machine": "leaf0", "threads": 2}]}]})");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes":)"
        R"( [{"node_id": 0, "service": "front", "path": "serve",)"
        R"(   "children": [1]},)"
        R"(  {"node_id": 1, "service": "leaf", "path": "serve",)"
        R"(   "children": [2]},)"
        R"(  {"node_id": 2, "service": "front", "path": "serve",)"
        R"(   "children": []}]}]})");
    bundle.client = json::parse(
        R"({"front_service": "front", "connections": 64,)"
        R"( "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": 500.0}, "request_bytes": {"type": "deterministic",)"
        R"( "value": 128.0}})");
    bundle.faults = json::parse(
        R"({"faults": [{"type": "crash", "instance": "leaf.0",)"
        R"( "at_s": 0.4, "recover_s": 0.5}]})");
    return bundle;
}

/** Jitter-only exploration: one decision, two onsets. */
ExploreOptions
jitterOptions()
{
    ExploreOptions options;
    options.limits.faultJitterChoices = 2;
    options.limits.faultJitterStepSeconds = 0.1;
    options.maxSchedules = 8;
    return options;
}

TEST(Explorer, DefaultScheduleMatchesPlainRunDigest)
{
    auto plain = Simulation::fromBundle(retryStormBundle(11));
    plain->run();
    const std::uint64_t base = plain->sim().traceDigest();

    // All three choice kinds armed: the all-defaults schedule must
    // still reproduce the chooser-free run bit-identically (the
    // option-0 contract).
    ExploreOptions options = jitterOptions();
    options.limits.maxTieChoices = 4;
    options.limits.timerNudgeChoices = 2;
    options.limits.timerNudgeStepSeconds = 0.0005;
    options.limits.maxDecisions = 256;
    Explorer explorer(explore::bundleFactory(retryStormBundle(11)),
                      options);
    const ScheduleOutcome outcome = explorer.runPrefix({});
    EXPECT_EQ(outcome.status, runner::FailureKind::None);
    EXPECT_EQ(outcome.digest, base);
}

TEST(Explorer, FindsSeededRetryStormViolationAndReplaysIt)
{
    const std::string schedule_path =
        ::testing::TempDir() + "uqsim_violation_schedule.json";
    const std::string journal_path =
        ::testing::TempDir() + "uqsim_explore_journal.jsonl";
    ExploreOptions options = jitterOptions();
    options.scheduleOutPath = schedule_path;
    options.journalPath = journal_path;
    Explorer explorer(explore::bundleFactory(retryStormBundle(11)),
                      options);
    // In the default schedule the leaf recovers at 0.50 s and
    // completions resume immediately; shifting the window +0.1 s
    // leaves the leaf dead through the whole grace period.
    explorer.addInvariant(explore::goodputRecovers(0.5, 0.05, 5));
    explorer.addInvariant(explore::breakerRecloses());
    explorer.addInvariant(explore::noJobLeaked());

    const ExploreResult result = explorer.explore();
    // One FaultJitter decision with two options: the default plus
    // one alternative, found within the budget.
    EXPECT_EQ(result.schedulesRun, 2u);
    EXPECT_EQ(result.violations, 1u);
    ASSERT_FALSE(result.outcomes.empty());
    EXPECT_FALSE(result.outcomes.front().violated());

    const ScheduleOutcome* violation = result.firstViolation();
    ASSERT_NE(violation, nullptr);
    EXPECT_NE(violation->digest, result.defaultDigest);
    EXPECT_NE(violation->violation.find("goodput-recovers"),
              std::string::npos);
    ASSERT_EQ(violation->decisions.size(), 1u);
    EXPECT_EQ(violation->decisions[0].kind, ChoiceKind::FaultJitter);
    EXPECT_EQ(violation->decisions[0].chosen, 1);

    // The emitted schedule file replays to the identical failing
    // digest and re-triggers the same invariant.
    const Schedule loaded = Schedule::load(schedule_path);
    EXPECT_EQ(loaded.expectedDigest, violation->digest);
    EXPECT_EQ(loaded.violation, violation->violation);
    const ScheduleOutcome replayed = explorer.replay(loaded);
    EXPECT_TRUE(replayed.error.empty()) << replayed.error;
    EXPECT_EQ(replayed.digest, loaded.expectedDigest);
    EXPECT_EQ(replayed.violation, violation->violation);

    // The journal reuses the harness taxonomy: the clean default
    // schedule is ok, the violating one is an invariant failure.
    const runner::JournalIndex journal =
        runner::JournalIndex::load(journal_path);
    const runner::JournalEntry* first =
        journal.find("explore", 0, 0);
    const runner::JournalEntry* second =
        journal.find("explore", 1, 0);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(first->status, runner::FailureKind::None);
    EXPECT_EQ(first->traceDigest, result.defaultDigest);
    EXPECT_EQ(second->status,
              runner::FailureKind::InvariantViolation);
    std::remove(schedule_path.c_str());
    std::remove(journal_path.c_str());
}

TEST(Explorer, EnumeratesJitterOptionsWithinBudget)
{
    ExploreOptions options;
    options.limits.faultJitterChoices = 3;
    options.limits.faultJitterStepSeconds = 0.05;
    options.maxSchedules = 10;
    Explorer explorer(explore::bundleFactory(retryStormBundle(5)),
                      options);
    const ExploreResult wide = explorer.explore();
    // One decision, three options -> exactly three schedules.
    EXPECT_EQ(wide.schedulesRun, 3u);
    EXPECT_EQ(wide.frontierLeft, 0u);
    EXPECT_FALSE(wide.aborted);

    // A budget of 2 leaves the third alternative unexplored.
    options.maxSchedules = 2;
    Explorer capped(explore::bundleFactory(retryStormBundle(5)),
                    options);
    const ExploreResult narrow = capped.explore();
    EXPECT_EQ(narrow.schedulesRun, 2u);
    EXPECT_EQ(narrow.frontierLeft, 1u);
}

TEST(Explorer, EventBudgetAbortClassifiesAsTimeoutWithCleanAudit)
{
    ExploreOptions options = jitterOptions();
    options.maxEventsPerSchedule = 2000;
    Explorer explorer(explore::bundleFactory(retryStormBundle(7)),
                      options);
    const ExploreResult result = explorer.explore();
    // The default schedule times out; aborted schedules are not
    // expanded, so the search ends after one run — and the loop
    // itself was not externally aborted.
    ASSERT_EQ(result.schedulesRun, 1u);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.outcomes[0].status,
              runner::FailureKind::Timeout);
    // The cooperative abort lands between events: the post-failure
    // engine audit must stay clean (no escalation to invariant).
    EXPECT_EQ(result.outcomes[0].error.find("post-failure engine audit"),
              std::string::npos);
}

TEST(Explorer, ExternalAbortStopsTheExplorationLoop)
{
    RunControl control;
    ExploreOptions options = jitterOptions();
    options.control = &control;
    control.requestAbort(AbortReason::External);
    Explorer explorer(explore::bundleFactory(retryStormBundle(7)),
                      options);
    const ExploreResult result = explorer.explore();
    ASSERT_EQ(result.schedulesRun, 1u);
    EXPECT_TRUE(result.aborted);
    EXPECT_EQ(result.outcomes[0].status,
              runner::FailureKind::Timeout);
}

// --------------------------------------------- schedule file format

TEST(ScheduleFile, RoundTripsThroughJson)
{
    Schedule schedule;
    schedule.limits.maxTieChoices = 3;
    schedule.limits.faultJitterChoices = 2;
    schedule.limits.faultJitterStepSeconds = 0.1;
    schedule.limits.timerNudgeChoices = 2;
    schedule.limits.timerNudgeStepSeconds = 0.0005;
    schedule.limits.maxDecisions = 32;
    schedule.choices.push_back(
        Decision{ChoiceKind::FaultJitter, 2, 1,
                 "fault-window/crash"});
    schedule.choices.push_back(
        Decision{ChoiceKind::EventTie, 3, 2, "event-tie"});
    schedule.expectedDigest = 0xDEADBEEFCAFEF00DULL;
    schedule.violation = "goodput-recovers: too slow";

    const Schedule back = Schedule::fromJson(schedule.toJson());
    EXPECT_EQ(back.limits.maxTieChoices, 3);
    EXPECT_EQ(back.limits.faultJitterChoices, 2);
    EXPECT_DOUBLE_EQ(back.limits.faultJitterStepSeconds, 0.1);
    EXPECT_EQ(back.limits.maxDecisions, 32u);
    ASSERT_EQ(back.choices.size(), 2u);
    EXPECT_EQ(back.choices[0].kind, ChoiceKind::FaultJitter);
    EXPECT_EQ(back.choices[0].chosen, 1);
    EXPECT_EQ(back.choices[1].options, 3);
    EXPECT_EQ(back.choices[1].label, "event-tie");
    EXPECT_EQ(back.expectedDigest, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(back.violation, "goodput-recovers: too slow");
}

TEST(ScheduleFile, SaveAndLoad)
{
    const std::string path =
        ::testing::TempDir() + "uqsim_schedule_roundtrip.json";
    Schedule schedule;
    schedule.expectedDigest = 42;
    schedule.choices.push_back(
        Decision{ChoiceKind::TimerNudge, 2, 1, "timer/retry"});
    schedule.save(path);
    const Schedule back = Schedule::load(path);
    EXPECT_EQ(back.expectedDigest, 42u);
    ASSERT_EQ(back.choices.size(), 1u);
    EXPECT_EQ(back.choices[0].kind, ChoiceKind::TimerNudge);
    std::remove(path.c_str());
}

TEST(ScheduleFile, RejectsBadInput)
{
    EXPECT_THROW(Schedule::fromJson(json::parse(
                     R"({"schema": "bogus", "limits": {},)"
                     R"( "choices": []})")),
                 json::JsonError);
    // chosen out of the declared option range
    EXPECT_THROW(
        Schedule::fromJson(json::parse(
            R"({"schema": "uqsim-schedule-v1", "limits": {},)"
            R"( "choices": [{"kind": "event_tie", "options": 2,)"
            R"( "chosen": 5}]})")),
        json::JsonError);
    // unknown choice kind
    EXPECT_THROW(
        Schedule::fromJson(json::parse(
            R"({"schema": "uqsim-schedule-v1", "limits": {},)"
            R"( "choices": [{"kind": "coin_flip", "options": 2,)"
            R"( "chosen": 0}]})")),
        std::invalid_argument);
}

TEST(ScheduleFile, DigestHexRoundTrip)
{
    EXPECT_EQ(explore::digestToHex(0), std::string(16, '0'));
    EXPECT_EQ(explore::digestToHex(0xCBF29CE484222325ULL),
              "cbf29ce484222325");
    EXPECT_EQ(explore::digestFromHex("cbf29ce484222325"),
              0xCBF29CE484222325ULL);
    EXPECT_EQ(explore::digestFromHex(
                  explore::digestToHex(0xFFFFFFFFFFFFFFFFULL)),
              0xFFFFFFFFFFFFFFFFULL);
    EXPECT_THROW(explore::digestFromHex("not-hex"),
                 std::invalid_argument);
    EXPECT_THROW(explore::digestFromHex(""), std::invalid_argument);
    EXPECT_THROW(explore::digestFromHex("0123456789abcdef0"),
                 std::invalid_argument);
}

TEST(ChoiceKinds, NamesRoundTrip)
{
    for (const ChoiceKind kind :
         {ChoiceKind::EventTie, ChoiceKind::FaultJitter,
          ChoiceKind::TimerNudge}) {
        EXPECT_EQ(choiceKindFromName(choiceKindName(kind)), kind);
    }
    EXPECT_THROW(choiceKindFromName("quantum"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace uqsim
