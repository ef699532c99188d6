#ifndef UQSIM_RUNNER_SWEEP_RUNNER_H_
#define UQSIM_RUNNER_SWEEP_RUNNER_H_

/**
 * @file
 * Parallel experiment harness.
 *
 * Every figure in the paper is a grid of independent simulations:
 * (configuration × offered-load point × seed replication).  The
 * SweepRunner executes that grid on a thread pool, one isolated
 * Simulation per job, and aggregates each point's replications with
 * the mergeable statistics (Summary::merge, PercentileRecorder::
 * merge) plus Student-t confidence intervals.
 *
 * Determinism contract (docs/ARCHITECTURE.md §"Parallel execution"):
 * a job's result is a pure function of (load, seed) — Simulation
 * instances share no mutable state, and every replication gets its
 * own seed split off the base seed — so the per-(seed, load) results
 * and all aggregates are bitwise identical no matter how many worker
 * threads execute the grid, including `jobs = 1`.  Aggregation runs
 * single-threaded in replication order after the pool drains, so
 * floating-point merge order is fixed.
 *
 * Robustness contract (docs/ARCHITECTURE.md §"Harness
 * failure-handling contract"): under the default Isolate policy a
 * worker failure never tears down the pool.  The failure is caught,
 * classified into the harness error taxonomy (runner/failure.h),
 * journaled, and the surviving replications of every point are
 * salvaged — their aggregates flagged degraded when short of the
 * planned replication count.  The run journal (runner/run_journal.h)
 * is the one way a killed or failed sweep resumes: with `resumePath`
 * the jobs it recorded ok are restored and only failed or missing
 * jobs re-run, with their original seeds.  Each replication runs
 * under its own RunControl
 * (core/engine/run_control.h), whose limits turn livelocked or
 * runaway replications into classified timeouts.
 *
 * The factory is invoked concurrently from pool threads and must be
 * thread-safe: it should only read shared immutable parameters and
 * build a fresh Simulation from them.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/engine/run_control.h"
#include "uqsim/core/sim/report.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/core/sim/sweep.h"
#include "uqsim/runner/failure.h"
#include "uqsim/stats/confidence.h"
#include "uqsim/stats/percentile_recorder.h"
#include "uqsim/stats/summary.h"

namespace uqsim {
namespace runner {

/**
 * Builds a finalized Simulation offering @p qps with master seed
 * @p seed.  Called once per grid job, possibly from several threads
 * at once.
 */
using ReplicatedFactory = std::function<std::unique_ptr<Simulation>(
    double qps, std::uint64_t seed)>;

/** What the runner does when a grid job fails. */
enum class FailurePolicy {
    /**
     * Catch, classify, journal, and salvage: the pool keeps
     * draining, surviving replications aggregate normally, and
     * affected points are flagged degraded.  The default.
     */
    Isolate,
    /**
     * Legacy strict mode: after the pool drains, rethrow the first
     * failure in grid order.  Failures are still journaled first,
     * so even a strict run can be resumed.
     */
    Propagate,
};

/** Runner knobs. */
struct RunnerOptions {
    /** Worker threads; 0 means hardware concurrency. */
    int jobs = 1;
    /** Seed replications per load point (>= 1). */
    int replications = 1;
    /** Base seed the replication seeds are split from. */
    std::uint64_t baseSeed = 1;
    /** Confidence level for across-replication intervals. */
    double confidence = 0.95;
    /** Failure isolation policy (see FailurePolicy). */
    FailurePolicy failurePolicy = FailurePolicy::Isolate;
    /** Per-replication event budget, wall-clock budget and stall
     *  window (each >= 0; 0 disables it).  Every job polls its own
     *  RunControl with these limits between events. */
    RunLimits limits;
    /** Append the fate of every job to this JSONL journal
     *  (empty = no journal). */
    std::string journalPath;
    /** Resume from this journal: jobs recorded ok with matching
     *  (qps, seed) are restored instead of re-simulated
     *  (empty = run everything). */
    std::string resumePath;
};

/**
 * Seed of replication @p replication: the base seed itself for
 * replication 0 (so a single-replication campaign reproduces a plain
 * run with that seed), and an independent split derived from
 * (base seed, "replication/<r>") otherwise.
 */
std::uint64_t replicationSeed(std::uint64_t base_seed, int replication);

/** Outcome of one (load, seed) job. */
struct ReplicationResult {
    std::uint64_t seed = 0;
    /** Event-trace digest of the run (Simulator::traceDigest). */
    std::uint64_t traceDigest = 0;
    RunReport report;
    /** FailureKind::None when the replication completed. */
    FailureKind failure = FailureKind::None;
    /** Classified error message; empty when ok. */
    std::string error;
    /** True when the result was restored from a resume journal's
     *  stat digest instead of re-simulated: the headline metrics
     *  and digest are exact, the full latency sample stream is
     *  not available for pooling. */
    bool restored = false;

    bool ok() const { return failure == FailureKind::None; }
};

/** One load point with all its replications and their aggregates. */
struct ReplicatedPoint {
    double offeredQps = 0.0;
    /** Per-replication results, in replication order — including
     *  failed ones (check ReplicationResult::ok()). */
    std::vector<ReplicationResult> replications;

    /** Replications the grid planned for this point. */
    int planned = 0;
    /** Replications that completed (fresh or restored) and were
     *  merged into the aggregates below. */
    int merged = 0;
    /** Of `merged`, how many were restored from a journal. */
    int restoredCount = 0;

    /** True when failures left this point short of planned data:
     *  its CIs rest on fewer observations than requested. */
    bool degraded() const { return merged < planned; }

    /** Across-replication distributions of the headline metrics
     *  (one observation per merged replication; latency in ms). */
    stats::Summary achievedQps;
    stats::Summary meanMs;
    stats::Summary p50Ms;
    stats::Summary p95Ms;
    stats::Summary p99Ms;

    /** Student-t confidence intervals on the across-replication
     *  means; valid() is false with fewer than 2 merged
     *  replications. */
    stats::ConfidenceInterval meanCi;
    stats::ConfidenceInterval p99Ci;
    stats::ConfidenceInterval achievedCi;

    /** All end-to-end latencies (seconds) of the fresh (non-
     *  restored) merged replications, pooled with
     *  PercentileRecorder::merge in replication order. */
    stats::PercentileRecorder pooled;

    /**
     * Report of the pooled point: across-replication mean throughput
     * and exact percentiles of the pooled latency stream; counts and
     * events are summed over merged replications.  When restored
     * replications left the pool partial, the end-to-end percentiles
     * fall back to the across-replication means of the per-run
     * percentiles and the report is marked degraded.
     */
    RunReport mergedReport() const;
};

/** A labelled curve of replicated points. */
struct ReplicatedCurve {
    std::string label;
    std::vector<ReplicatedPoint> points;

    /** Failed replications summed over all points. */
    int failedReplications() const;

    /**
     * Collapses each point to its pooled report, yielding the
     * SweepCurve shape the figure benches and saturation helpers
     * consume.  With one replication this is exactly the serial
     * runLoadSweep result for the same seed.
     */
    SweepCurve toSweepCurve() const;
};

/** Thread-pool executor for (config × load × seed) grids. */
class SweepRunner {
  public:
    explicit SweepRunner(RunnerOptions options = {});

    /** Queues one curve: @p loads points × options.replications. */
    void addSweep(std::string label, std::vector<double> loads,
                  ReplicatedFactory factory);

    /**
     * Executes all queued jobs and returns the curves in addSweep
     * order.  May be called once.
     *
     * Isolate policy: always returns; inspect the per-replication
     * results / degraded flags for failures.  Propagate policy: the
     * first job exception (in grid order) is rethrown after the
     * pool drains.
     */
    std::vector<ReplicatedCurve> run();

    /** Resolved worker count (options.jobs, or the hardware). */
    int effectiveJobs() const;

    /** After run(): jobs skipped because the resume journal already
     *  recorded them ok. */
    int restoredJobs() const { return restoredJobs_; }
    /** After run(): jobs that failed (by taxonomy, all kinds). */
    int failedJobs() const { return failedJobs_; }

    /** After run(): warnings surfaced while loading the resume
     *  journal (dropped truncated/corrupt lines).  Also printed to
     *  stderr during run(). */
    const std::vector<std::string>& resumeWarnings() const
    {
        return resumeWarnings_;
    }

    const RunnerOptions& options() const { return options_; }

  private:
    struct SweepSpec {
        std::string label;
        std::vector<double> loads;
        ReplicatedFactory factory;
    };

    RunnerOptions options_;
    std::vector<SweepSpec> sweeps_;
    bool ran_ = false;
    int restoredJobs_ = 0;
    int failedJobs_ = 0;
    std::vector<std::string> resumeWarnings_;
};

/**
 * Convenience: runs @p replications seeded replications of one
 * configuration at one load on @p jobs threads and returns the
 * aggregated point.
 */
ReplicatedPoint runReplicated(const ReplicatedFactory& factory,
                              double qps, const RunnerOptions& options);

/**
 * Text table of replicated curves: one row per load with
 * "mean ± hw" / "p99 ± hw" columns per curve (half-widths at the
 * runner's confidence level; "-" when fewer than 2 replications).
 * Degraded points are marked with a trailing '!'.
 */
std::string
formatReplicatedTable(const std::vector<ReplicatedCurve>& curves);

}  // namespace runner
}  // namespace uqsim

#endif  // UQSIM_RUNNER_SWEEP_RUNNER_H_
