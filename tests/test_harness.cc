/**
 * @file
 * Tests for the harness robustness layer: the failure taxonomy,
 * crash-isolated sweeps with partial-result salvage, the run
 * journal and --resume semantics (down to a SIGKILL'd sweep resumed
 * from its journal), the per-run limits (event budget, wall timeout,
 * stall window), and the engine invariant auditor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#endif

#include "uqsim/core/engine/audit.h"
#include "uqsim/core/engine/run_control.h"
#include "uqsim/core/sim/audit.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/json/json_writer.h"
#include "uqsim/models/applications.h"
#include "uqsim/runner/failure.h"
#include "uqsim/runner/run_journal.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace {

models::ThriftEchoParams
thriftParams(double qps, std::uint64_t seed)
{
    models::ThriftEchoParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.2;
    params.run.durationSeconds = 0.8;
    return params;
}

std::unique_ptr<Simulation>
makeThrift(double qps, std::uint64_t seed)
{
    return Simulation::fromBundle(
        models::thriftEchoBundle(thriftParams(qps, seed)));
}

runner::ReplicatedFactory
thriftFactory()
{
    return [](double qps, std::uint64_t seed) {
        return makeThrift(qps, seed);
    };
}

/** Unique-ish temp path per test (ctest runs tests in parallel). */
std::string
tempPath(const std::string& stem)
{
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return "harness_" + std::string(info->name()) + "_" + stem +
           ".jsonl";
}

struct FileJanitor {
    std::vector<std::string> paths;
    ~FileJanitor()
    {
        for (const std::string& path : paths)
            std::remove(path.c_str());
    }
    const std::string&
    track(const std::string& path)
    {
        paths.push_back(path);
        return paths.back();
    }
};

// ---------------------------------------------------------------------
// Failure taxonomy

runner::FailureKind
classify(std::exception_ptr error, std::string* message = nullptr)
{
    std::string scratch;
    return runner::classifyException(error,
                                     message ? message : &scratch);
}

template <typename E>
std::exception_ptr
thrown(E&& error)
{
    return std::make_exception_ptr(std::forward<E>(error));
}

TEST(FailureTaxonomy, ClassifiesByExceptionType)
{
    EXPECT_EQ(classify(thrown(std::invalid_argument("bad knob"))),
              runner::FailureKind::ConfigError);
    EXPECT_EQ(classify(thrown(std::logic_error("protocol"))),
              runner::FailureKind::ConfigError);
    EXPECT_EQ(classify(thrown(json::JsonError("parse"))),
              runner::FailureKind::ConfigError);
    EXPECT_EQ(classify(thrown(EngineInvariantError("leaked slot"))),
              runner::FailureKind::InvariantViolation);
    EXPECT_EQ(classify(thrown(SimulationAbortError(
                  AbortReason::Stall, "frozen"))),
              runner::FailureKind::Timeout);
    EXPECT_EQ(classify(thrown(std::runtime_error("boom"))),
              runner::FailureKind::InternalError);

    std::string message;
    classify(thrown(std::runtime_error("boom")), &message);
    EXPECT_NE(message.find("boom"), std::string::npos);
}

TEST(FailureTaxonomy, InvariantBeatsLogicErrorBase)
{
    // EngineInvariantError derives std::logic_error; the classifier
    // must pick the more specific taxonomy bucket.
    EXPECT_EQ(classify(thrown(EngineInvariantError("x"))),
              runner::FailureKind::InvariantViolation);
}

TEST(FailureTaxonomy, NamesRoundTrip)
{
    const runner::FailureKind kinds[] = {
        runner::FailureKind::None,
        runner::FailureKind::ConfigError,
        runner::FailureKind::InvariantViolation,
        runner::FailureKind::Timeout,
        runner::FailureKind::InternalError,
    };
    for (runner::FailureKind kind : kinds) {
        EXPECT_EQ(runner::failureKindFromName(
                      runner::failureKindName(kind)),
                  kind);
    }
    EXPECT_THROW(runner::failureKindFromName("nonsense"),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Crash isolation and salvage

TEST(CrashIsolation, ThrowingPointIsSalvagedAround)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    options.replications = 2;
    options.baseSeed = 7;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "mixed", {1000.0, 2000.0, 3000.0},
        [](double qps,
           std::uint64_t seed) -> std::unique_ptr<Simulation> {
            if (qps == 2000.0)
                throw std::runtime_error("deliberate failure");
            return makeThrift(qps, seed);
        });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();

    ASSERT_EQ(curves.size(), 1u);
    ASSERT_EQ(curves[0].points.size(), 3u);
    EXPECT_EQ(sweep_runner.failedJobs(), 2);
    EXPECT_EQ(curves[0].failedReplications(), 2);

    const runner::ReplicatedPoint& good = curves[0].points[0];
    const runner::ReplicatedPoint& bad = curves[0].points[1];

    EXPECT_FALSE(good.degraded());
    EXPECT_EQ(good.merged, 2);
    EXPECT_GT(good.pooled.count(), 0u);

    EXPECT_TRUE(bad.degraded());
    EXPECT_EQ(bad.merged, 0);
    ASSERT_EQ(bad.replications.size(), 2u);
    for (const runner::ReplicationResult& rep : bad.replications) {
        EXPECT_FALSE(rep.ok());
        EXPECT_EQ(rep.failure, runner::FailureKind::InternalError);
        EXPECT_NE(rep.error.find("deliberate failure"),
                  std::string::npos);
    }

    // Degradation is visible in the merged report and the table.
    EXPECT_TRUE(bad.mergedReport().degraded);
    EXPECT_EQ(bad.mergedReport().replicationsMerged, 0);
    EXPECT_EQ(good.mergedReport().replicationsMerged, 2);
    EXPECT_FALSE(good.mergedReport().degraded);
    EXPECT_NE(runner::formatReplicatedTable(curves).find("!"),
              std::string::npos);
}

TEST(CrashIsolation, HealthyResultsMatchCleanRunBitwise)
{
    // The salvage path must not perturb surviving replications: their
    // digests and metrics are bitwise identical to an all-healthy run
    // of the same grid.
    auto run_grid = [](bool sabotage) {
        runner::RunnerOptions options;
        options.jobs = 2;
        options.replications = 2;
        options.baseSeed = 5;
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep(
            "grid", {1500.0, 2500.0},
            [sabotage](double qps,
                       std::uint64_t seed) -> std::unique_ptr<Simulation> {
                if (sabotage && qps == 2500.0)
                    throw std::runtime_error("sabotaged");
                return makeThrift(qps, seed);
            });
        return sweep_runner.run();
    };
    const std::vector<runner::ReplicatedCurve> clean = run_grid(false);
    const std::vector<runner::ReplicatedCurve> salvaged = run_grid(true);

    const runner::ReplicatedPoint& clean_point = clean[0].points[0];
    const runner::ReplicatedPoint& salvaged_point =
        salvaged[0].points[0];
    ASSERT_EQ(clean_point.replications.size(),
              salvaged_point.replications.size());
    for (std::size_t r = 0; r < clean_point.replications.size(); ++r) {
        EXPECT_EQ(clean_point.replications[r].traceDigest,
                  salvaged_point.replications[r].traceDigest);
        EXPECT_EQ(clean_point.replications[r].report.endToEnd.p99Ms,
                  salvaged_point.replications[r].report.endToEnd.p99Ms);
    }
    EXPECT_EQ(clean_point.p99Ci.halfWidth,
              salvaged_point.p99Ci.halfWidth);
}

TEST(CrashIsolation, PropagatePolicyRethrowsFirstInGridOrder)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    options.failurePolicy = runner::FailurePolicy::Propagate;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "bad", {1000.0, 2000.0},
        [](double qps,
           std::uint64_t seed) -> std::unique_ptr<Simulation> {
            if (qps > 1500.0)
                throw std::runtime_error("boom");
            return makeThrift(qps, seed);
        });
    EXPECT_THROW(sweep_runner.run(), std::runtime_error);
}

TEST(CrashIsolation, FactoryProtocolViolationIsConfigError)
{
    runner::SweepRunner sweep_runner;
    sweep_runner.addSweep("null", {1000.0},
                          [](double, std::uint64_t) {
                              return std::unique_ptr<Simulation>();
                          });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    const runner::ReplicationResult& rep =
        curves[0].points[0].replications[0];
    EXPECT_EQ(rep.failure, runner::FailureKind::ConfigError);
    EXPECT_NE(rep.error.find("finalized"), std::string::npos);
}

// ---------------------------------------------------------------------
// Run journal

TEST(RunJournal, EntryJsonRoundTripsExactly)
{
    runner::JournalEntry entry;
    entry.sweep = "thrift";
    entry.point = 3;
    entry.replication = 2;
    entry.qps = 12345.678;
    entry.seed = 0xDEADBEEFCAFEF00DULL;
    entry.status = runner::FailureKind::None;
    entry.traceDigest = 0xFFFFFFFFFFFFFFFFULL;
    entry.achievedQps = 12000.25;
    entry.meanMs = 1.5;
    entry.p50Ms = 1.25;
    entry.p95Ms = 2.5;
    entry.p99Ms = 3.75;
    entry.maxMs = 9.0;
    entry.completed = 12000;
    entry.generated = 12345;
    entry.events = 987654321;

    const runner::JournalEntry back = runner::JournalEntry::fromJson(
        json::parse(json::write(entry.toJson())));
    EXPECT_EQ(back.sweep, entry.sweep);
    EXPECT_EQ(back.point, entry.point);
    EXPECT_EQ(back.replication, entry.replication);
    EXPECT_EQ(back.qps, entry.qps);
    // Seeds and digests are full-range uint64 (hex-encoded in the
    // JSON); they must survive without truncation.
    EXPECT_EQ(back.seed, entry.seed);
    EXPECT_EQ(back.traceDigest, entry.traceDigest);
    EXPECT_EQ(back.achievedQps, entry.achievedQps);
    EXPECT_EQ(back.p99Ms, entry.p99Ms);
    EXPECT_EQ(back.events, entry.events);
    EXPECT_TRUE(back.ok());
}

TEST(RunJournal, FailedEntryCarriesTaxonomy)
{
    runner::JournalEntry entry;
    entry.sweep = "s";
    entry.status = runner::FailureKind::Timeout;
    entry.error = "aborted (stall)";
    const runner::JournalEntry back = runner::JournalEntry::fromJson(
        json::parse(json::write(entry.toJson())));
    EXPECT_EQ(back.status, runner::FailureKind::Timeout);
    EXPECT_EQ(back.error, "aborted (stall)");
    EXPECT_FALSE(back.ok());
}

TEST(RunJournal, WriterCreatesHeaderAndIndexLoads)
{
    FileJanitor janitor;
    const std::string path = janitor.track(tempPath("journal"));
    {
        runner::JournalWriter writer(path);
        runner::JournalEntry entry;
        entry.sweep = "a";
        entry.point = 0;
        entry.replication = 0;
        entry.qps = 100.0;
        entry.seed = 1;
        writer.append(entry);
        entry.replication = 1;
        entry.status = runner::FailureKind::InternalError;
        entry.error = "x";
        writer.append(entry);
    }
    const runner::JournalIndex index = runner::JournalIndex::load(path);
    EXPECT_EQ(index.entries.size(), 2u);
    EXPECT_EQ(index.skippedLines, 0u);
    ASSERT_NE(index.find("a", 0, 0), nullptr);
    EXPECT_TRUE(index.find("a", 0, 0)->ok());
    ASSERT_NE(index.find("a", 0, 1), nullptr);
    EXPECT_FALSE(index.find("a", 0, 1)->ok());
    EXPECT_EQ(index.find("a", 0, 2), nullptr);
    EXPECT_EQ(index.find("b", 0, 0), nullptr);
}

TEST(RunJournal, LastWriteWinsAndTruncatedLinesAreSkipped)
{
    FileJanitor janitor;
    const std::string path = janitor.track(tempPath("journal"));
    {
        runner::JournalWriter writer(path);
        runner::JournalEntry entry;
        entry.sweep = "a";
        entry.status = runner::FailureKind::Timeout;
        writer.append(entry);
        entry.status = runner::FailureKind::None;
        writer.append(entry);  // the re-run supersedes the failure
    }
    {
        // Simulate a crash mid-append: a truncated trailing line.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"sweep\":\"a\",\"point\"";
    }
    const runner::JournalIndex index = runner::JournalIndex::load(path);
    EXPECT_EQ(index.entries.size(), 1u);
    EXPECT_EQ(index.skippedLines, 1u);
    // The drop is surfaced, not silent: one warning naming the file
    // and line so the harness (and the user) can see what was lost.
    ASSERT_EQ(index.warnings.size(), 1u);
    EXPECT_NE(index.warnings[0].find(path), std::string::npos)
        << index.warnings[0];
    EXPECT_NE(index.warnings[0].find(":4"), std::string::npos)
        << index.warnings[0];
    ASSERT_NE(index.find("a", 0, 0), nullptr);
    EXPECT_TRUE(index.find("a", 0, 0)->ok());
}

TEST(RunJournal, RejectsHeaderlessOrMissingFiles)
{
    FileJanitor janitor;
    EXPECT_THROW(runner::JournalIndex::load("no_such_journal.jsonl"),
                 std::runtime_error);
    const std::string path = janitor.track(tempPath("headerless"));
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"sweep\":\"a\"}\n";
    }
    EXPECT_THROW(runner::JournalIndex::load(path), std::runtime_error);
}

TEST(RunJournal, SweepWritesJournalAndResumeSkipsCompletedJobs)
{
    FileJanitor janitor;
    const std::string path = janitor.track(tempPath("journal"));
    const std::vector<double> loads = {1000.0, 2000.0, 3000.0};

    // Pass 1: the 2000-qps point fails every replication.
    std::vector<runner::ReplicatedCurve> first;
    {
        runner::RunnerOptions options;
        options.jobs = 2;
        options.replications = 2;
        options.baseSeed = 9;
        options.journalPath = path;
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep(
            "grid", loads,
            [](double qps,
               std::uint64_t seed) -> std::unique_ptr<Simulation> {
                if (qps == 2000.0)
                    throw std::runtime_error("first-pass failure");
                return makeThrift(qps, seed);
            });
        first = sweep_runner.run();
        EXPECT_EQ(sweep_runner.failedJobs(), 2);
    }
    {
        const runner::JournalIndex index =
            runner::JournalIndex::load(path);
        EXPECT_EQ(index.entries.size(), 6u);
    }

    // Pass 2: resume.  Only the failed jobs may re-run.
    std::atomic<int> built{0};
    runner::RunnerOptions options;
    options.jobs = 2;
    options.replications = 2;
    options.baseSeed = 9;
    options.journalPath = path;
    options.resumePath = path;
    runner::SweepRunner resumed(options);
    resumed.addSweep("grid", loads,
                     [&built](double qps, std::uint64_t seed) {
                         built.fetch_add(1);
                         return makeThrift(qps, seed);
                     });
    const std::vector<runner::ReplicatedCurve> second = resumed.run();

    EXPECT_EQ(built.load(), 2);  // just the two failed replications
    EXPECT_EQ(resumed.restoredJobs(), 4);
    EXPECT_EQ(resumed.failedJobs(), 0);

    // Restored results carry the exact digests and metrics of pass 1,
    // and the across-replication CIs rebuild bitwise.
    for (std::size_t p = 0; p < loads.size(); p += 2) {
        const runner::ReplicatedPoint& a = first[0].points[p];
        const runner::ReplicatedPoint& b = second[0].points[p];
        ASSERT_EQ(b.replications.size(), 2u);
        for (std::size_t r = 0; r < 2; ++r) {
            EXPECT_TRUE(b.replications[r].restored);
            EXPECT_EQ(a.replications[r].traceDigest,
                      b.replications[r].traceDigest);
            EXPECT_EQ(a.replications[r].report.endToEnd.p99Ms,
                      b.replications[r].report.endToEnd.p99Ms);
        }
        EXPECT_EQ(a.p99Ci.halfWidth, b.p99Ci.halfWidth);
        EXPECT_EQ(a.meanCi.halfWidth, b.meanCi.halfWidth);
        // Restored points cannot rebuild the pooled latency stream;
        // the merged report says so instead of silently pooling less.
        EXPECT_EQ(b.restoredCount, 2);
        EXPECT_TRUE(b.mergedReport().degraded);
    }

    // The middle point now succeeded and is a fresh full result.
    const runner::ReplicatedPoint& repaired = second[0].points[1];
    EXPECT_EQ(repaired.merged, 2);
    EXPECT_EQ(repaired.restoredCount, 0);
    EXPECT_FALSE(repaired.degraded());
    EXPECT_GT(repaired.pooled.count(), 0u);

    // The journal now records everything ok (last write wins).
    const runner::JournalIndex final_index =
        runner::JournalIndex::load(path);
    for (const auto& [key, entry] : final_index.entries)
        EXPECT_TRUE(entry.ok()) << key;
}

TEST(RunJournal, ResumeIgnoresEntriesWithMismatchedSeeds)
{
    FileJanitor janitor;
    const std::string path = janitor.track(tempPath("journal"));
    {
        runner::RunnerOptions options;
        options.replications = 1;
        options.baseSeed = 1;
        options.journalPath = path;
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep("grid", {1000.0}, thriftFactory());
        sweep_runner.run();
    }
    // Same grid shape, different base seed: nothing may be restored.
    std::atomic<int> built{0};
    runner::RunnerOptions options;
    options.replications = 1;
    options.baseSeed = 2;
    options.resumePath = path;
    runner::SweepRunner resumed(options);
    resumed.addSweep("grid", {1000.0},
                     [&built](double qps, std::uint64_t seed) {
                         built.fetch_add(1);
                         return makeThrift(qps, seed);
                     });
    resumed.run();
    EXPECT_EQ(built.load(), 1);
    EXPECT_EQ(resumed.restoredJobs(), 0);
}

// ---------------------------------------------------------------------
// Run limits

/** Schedules an event that reschedules itself at the same sim time:
 *  events keep firing but the clock never advances. */
void
scheduleLivelock(Simulator& sim)
{
    sim.scheduleAfter(0, [&sim]() { scheduleLivelock(sim); },
                      "livelock");
}

TEST(RunLimits, StallWindowKillsZeroDelayLivelock)
{
    runner::RunnerOptions options;
    options.jobs = 1;
    options.limits.stallWindowSeconds = 0.2;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("stall", {500.0},
                          [](double qps, std::uint64_t seed) {
                              auto simulation = makeThrift(qps, seed);
                              scheduleLivelock(simulation->sim());
                              return simulation;
                          });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    const runner::ReplicationResult& rep =
        curves[0].points[0].replications[0];
    EXPECT_EQ(rep.failure, runner::FailureKind::Timeout);
    EXPECT_NE(rep.error.find("stall"), std::string::npos);
}

TEST(RunLimits, EventBudgetIsDeterministic)
{
    auto run_with_budget = [](std::uint64_t budget) {
        runner::RunnerOptions options;
        options.jobs = 1;
        options.limits.maxEvents = budget;
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep("budget", {20000.0}, thriftFactory());
        return sweep_runner.run()[0].points[0].replications[0];
    };
    const runner::ReplicationResult a = run_with_budget(4000);
    const runner::ReplicationResult b = run_with_budget(4000);
    EXPECT_EQ(a.failure, runner::FailureKind::Timeout);
    EXPECT_NE(a.error.find("event-budget"), std::string::npos);
    // Same budget, same stream: the kill point is reproducible.
    EXPECT_EQ(a.error, b.error);
}

TEST(RunLimits, WallTimeoutKillsLongRun)
{
    runner::RunnerOptions options;
    options.jobs = 1;
    options.limits.wallTimeoutSeconds = 0.05;
    runner::SweepRunner sweep_runner(options);
    // A long, high-load run that would take far more than 50 ms.
    sweep_runner.addSweep(
        "slow", {30000.0}, [](double qps, std::uint64_t seed) {
            models::ThriftEchoParams params = thriftParams(qps, seed);
            params.run.durationSeconds = 60.0;
            return Simulation::fromBundle(
                models::thriftEchoBundle(params));
        });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    const runner::ReplicationResult& rep =
        curves[0].points[0].replications[0];
    EXPECT_EQ(rep.failure, runner::FailureKind::Timeout);
    EXPECT_NE(rep.error.find("wall-timeout"), std::string::npos);
}

TEST(RunLimits, UnsupervisedRunsAreUntouched)
{
    // All limits zero: no RunControl overhead beyond the poll
    // branch, results identical to the seed path.
    runner::RunnerOptions options;
    options.jobs = 1;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("plain", {2000.0}, thriftFactory());
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    const runner::ReplicationResult& rep =
        curves[0].points[0].replications[0];
    EXPECT_TRUE(rep.ok());
    EXPECT_GT(rep.report.completed, 0u);
}

TEST(RunLimits, StallWindowSparesAProgressingRun)
{
    // The run lasts more than two stall windows in an optimised
    // build (far more under sanitizers), but its clock moves between
    // every two polls, so no poll sees a stall.  Two simulated
    // seconds keep the run near 2 s under TSan.
    runner::RunnerOptions options;
    options.jobs = 1;
    options.limits.stallWindowSeconds = 0.025;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "progressing", {20000.0}, [](double qps, std::uint64_t seed) {
            models::ThriftEchoParams params = thriftParams(qps, seed);
            params.run.durationSeconds = 2.0;
            return Simulation::fromBundle(
                models::thriftEchoBundle(params));
        });
    const runner::ReplicationResult rep =
        sweep_runner.run()[0].points[0].replications[0];
    EXPECT_TRUE(rep.ok()) << rep.error;

    // A moving clock alone does not spare a run: a poll that comes a
    // window or more after the last one is a stall.
    RunControl slow(RunLimits{0, 0.0, 0.025});
    slow.poll(0, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_THROW(slow.poll(Simulator::kControlPollEvents, 1),
                 SimulationAbortError);
    EXPECT_EQ(slow.abortRequested(), AbortReason::Stall);
}

TEST(RunLimits, WallTimeoutStartsWithTheRun)
{
    // Building the simulation takes longer than the wall budget; the
    // budget counts from the run's first event, so the short run
    // that follows still ends ok.
    runner::RunnerOptions options;
    options.jobs = 1;
    options.limits.wallTimeoutSeconds = 0.2;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "slow-build", {1000.0}, [](double qps, std::uint64_t seed) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            models::ThriftEchoParams params = thriftParams(qps, seed);
            params.run.warmupSeconds = 0.01;
            params.run.durationSeconds = 0.05;
            return Simulation::fromBundle(
                models::thriftEchoBundle(params));
        });
    const runner::ReplicationResult rep =
        sweep_runner.run()[0].points[0].replications[0];
    EXPECT_TRUE(rep.ok()) << rep.error;
    EXPECT_GT(rep.report.completed, 0u);
}

TEST(RunControl, FirstAbortReasonWins)
{
    RunControl control;
    EXPECT_EQ(control.abortRequested(), AbortReason::None);
    control.requestAbort(AbortReason::Stall);
    control.requestAbort(AbortReason::WallTimeout);
    EXPECT_EQ(control.abortRequested(), AbortReason::Stall);
}

// ---------------------------------------------------------------------
// Engine invariant auditor

class AuditModeGuard {
  public:
    AuditModeGuard() { audit::setAuditMode(true); }
    ~AuditModeGuard() { audit::setAuditMode(false); }
};

TEST(Auditor, CleanRunPassesInAuditMode)
{
    AuditModeGuard guard;
    auto simulation = makeThrift(2000.0, 3);
    const RunReport report = simulation->run();
    EXPECT_GT(report.completed, 0u);
    // Quiescent state after a clean drain: explicit re-audit agrees.
    const audit::AuditReport engine =
        simulation->sim().auditEngine();
    EXPECT_TRUE(engine.clean()) << engine.describe();
    const audit::AuditReport full =
        audit::auditSimulation(*simulation, /*at_drain=*/false);
    EXPECT_TRUE(full.clean()) << full.describe();
}

TEST(Auditor, FaultScenarioPassesConservationChecks)
{
    // Fault injection exercises the failure/crash/refusal paths of
    // the conservation ledger; the auditor must not false-positive
    // on a run where requests legitimately die mid-flight.
    AuditModeGuard guard;
    runner::RunnerOptions options;
    options.jobs = 1;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "faulty", {4000.0}, [](double qps, std::uint64_t seed) {
            ConfigBundle bundle =
                models::thriftEchoBundle(thriftParams(qps, seed));
            bundle.faults = json::parse(
                R"({"faults": [{"type": "crash",)"
                R"( "service": "thrift_echo",)"
                R"( "mtbf_s": 0.2, "mttr_s": 0.05}]})");
            return Simulation::fromBundle(bundle);
        });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    const runner::ReplicationResult& rep =
        curves[0].points[0].replications[0];
    EXPECT_TRUE(rep.ok()) << rep.error;
    EXPECT_GT(rep.report.crashes, 0u);
}

TEST(Auditor, AbortedReplicationLeavesNoLeakedEvents)
{
    // Satellite 6: a replication killed mid-run (event budget) must
    // have released its pooled event storage before the harness
    // salvages siblings — the abort path runs the engine leak check
    // and would escalate to an invariant violation otherwise.
    AuditModeGuard guard;
    runner::RunnerOptions options;
    options.jobs = 2;
    options.replications = 2;
    options.limits.maxEvents = 4000;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("aborted", {20000.0}, thriftFactory());
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    for (const runner::ReplicationResult& rep :
         curves[0].points[0].replications) {
        // Classified as a timeout, NOT escalated to invariant: the
        // post-failure engine audit found nothing leaked.
        EXPECT_EQ(rep.failure, runner::FailureKind::Timeout);
        EXPECT_EQ(rep.error.find("invariant"), std::string::npos);
    }
}

TEST(Auditor, MidRunExceptionReleasesPooledEventStorage)
{
    // A user callback that throws mid-event: FiredEvent's RAII must
    // release the slab slot during unwind, so the abort-path audit
    // stays clean and the failure keeps its original classification.
    runner::RunnerOptions options;
    options.jobs = 1;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "thrower", {1000.0}, [](double qps, std::uint64_t seed) {
            auto simulation = makeThrift(qps, seed);
            simulation->sim().scheduleAfter(
                secondsToSimTime(0.4),
                []() {
                    throw std::runtime_error("mid-run explosion");
                },
                "bomb");
            return simulation;
        });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    const runner::ReplicationResult& rep =
        curves[0].points[0].replications[0];
    EXPECT_EQ(rep.failure, runner::FailureKind::InternalError)
        << rep.error;
    EXPECT_NE(rep.error.find("mid-run explosion"), std::string::npos)
        << rep.error;
    // No escalation: the engine audit in the abort path was clean.
    EXPECT_EQ(rep.error.find("invariant"), std::string::npos)
        << rep.error;
}

TEST(Auditor, ReportsDescribeAndRaise)
{
    audit::AuditReport clean;
    EXPECT_TRUE(clean.clean());
    EXPECT_NO_THROW(clean.raise("context"));

    audit::AuditReport dirty;
    dirty.violations.push_back("first problem");
    dirty.violations.push_back("second problem");
    EXPECT_FALSE(dirty.clean());
    EXPECT_NE(dirty.describe().find("first problem"),
              std::string::npos);
    try {
        dirty.raise("unit test");
        FAIL() << "raise() must throw";
    } catch (const EngineInvariantError& error) {
        EXPECT_NE(std::string(error.what()).find("unit test"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Crash recovery end to end: SIGKILL a journaling sweep, resume

#if defined(__unix__) || defined(__APPLE__)

/**
 * The real crash scenario, not a stand-in: a child process runs a
 * journaling sweep and SIGKILLs *itself* inside its third job (no
 * atexit, no unwinding, exactly what `kill -9` or the OOM killer
 * does).  The journal lines of the two finished jobs must already be
 * on disk, so the parent resumes from the journal alone, re-runs
 * only the killed job, and must reach a clean sweep's digests.
 */
TEST(CrashRecovery, SigkilledSweepResumesFromJournalBitIdentically)
{
    FileJanitor janitor;
    const std::string killed = janitor.track(tempPath("killed"));
    const std::string resumed_path = janitor.track(tempPath("resumed"));
    const std::vector<double> loads = {1000.0, 1500.0, 2000.0};
    const auto digestsOf =
        [](const std::vector<runner::ReplicatedCurve>& curves) {
            std::vector<std::uint64_t> digests;
            for (const runner::ReplicatedPoint& point : curves[0].points) {
                for (const runner::ReplicationResult& rep :
                     point.replications) {
                    EXPECT_TRUE(rep.ok()) << rep.error;
                    digests.push_back(rep.traceDigest);
                }
            }
            return digests;
        };

    const pid_t child = fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        // Child: one worker, so the jobs run in grid order and the
        // first two are journaled before the third starts.
        runner::RunnerOptions options;
        options.jobs = 1;
        options.journalPath = killed;
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep(
            "grid", loads, [&](double qps, std::uint64_t seed) {
                auto simulation = makeThrift(qps, seed);
                if (qps == loads.back()) {
                    Simulation* raw = simulation.get();
                    simulation->setCompletionListener(
                        [raw](const Job&, double) {
                            if (raw->sim().executedEvents() > 5000)
                                ::raise(SIGKILL);
                        });
                }
                return simulation;
            });
        sweep_runner.run();
        // Reached only when the third job finished before the kill
        // threshold; the parent will fail on WIFSIGNALED then.
        std::_Exit(0);
    }

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child was not killed - raise the workload";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // Recovery sees only the journal lines the kill left behind.
    runner::RunnerOptions options;
    options.journalPath = resumed_path;
    options.resumePath = killed;
    runner::SweepRunner resumed(options);
    resumed.addSweep("grid", loads, thriftFactory());
    const std::vector<std::uint64_t> resumed_digests =
        digestsOf(resumed.run());
    EXPECT_EQ(resumed.restoredJobs(), 2);
    EXPECT_TRUE(resumed.resumeWarnings().empty());

    runner::SweepRunner clean{runner::RunnerOptions{}};
    clean.addSweep("grid", loads, thriftFactory());
    EXPECT_EQ(resumed_digests, digestsOf(clean.run()));

    // The resumed run's journal is complete on its own.
    const runner::JournalIndex index =
        runner::JournalIndex::load(resumed_path);
    EXPECT_EQ(index.entries.size(), loads.size());
    for (const auto& [key, entry] : index.entries)
        EXPECT_TRUE(entry.ok()) << key;
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace uqsim
