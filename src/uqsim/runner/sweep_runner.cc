#include "uqsim/runner/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "uqsim/random/rng.h"
#include "uqsim/runner/run_journal.h"

namespace uqsim {
namespace runner {

std::uint64_t
replicationSeed(std::uint64_t base_seed, int replication)
{
    if (replication < 0)
        throw std::invalid_argument("replication index must be >= 0");
    if (replication == 0)
        return base_seed;
    return random::RngStream::deriveSeed(
        base_seed, "replication/" + std::to_string(replication));
}

RunReport
ReplicatedPoint::mergedReport() const
{
    RunReport report;
    report.replicationsPlanned = planned;
    report.replicationsMerged = merged;
    report.degraded = degraded() || restoredCount > 0;
    report.offeredQps = offeredQps;
    if (offeredQps <= 0.0) {
        // A zero grid load means "whatever the bundle offers" (the
        // CLI's replicated mode); report what a surviving
        // replication measured.
        for (const ReplicationResult& rep : replications) {
            if (rep.ok()) {
                report.offeredQps = rep.report.offeredQps;
                break;
            }
        }
    }
    report.achievedQps = achievedQps.mean();
    for (const ReplicationResult& rep : replications) {
        if (!rep.ok())
            continue;
        report.generated += rep.report.generated;
        report.completed += rep.report.completed;
        report.timeouts += rep.report.timeouts;
        report.failed += rep.report.failed;
        report.shed += rep.report.shed;
        report.retries += rep.report.retries;
        report.hedges += rep.report.hedges;
        report.breakerTrips += rep.report.breakerTrips;
        report.netDropped += rep.report.netDropped;
        report.crashes += rep.report.crashes;
        report.failovers += rep.report.failovers;
        report.unreachable += rep.report.unreachable;
        report.linkDrops += rep.report.linkDrops;
        for (const auto& [tier, stats] : rep.report.tierFaults) {
            TierFaultStats& merged_tier = report.tierFaults[tier];
            merged_tier.errors += stats.errors;
            merged_tier.timeouts += stats.timeouts;
            merged_tier.hopTimeouts += stats.hopTimeouts;
            merged_tier.retries += stats.retries;
            merged_tier.hedges += stats.hedges;
            merged_tier.shed += stats.shed;
            merged_tier.rejected += stats.rejected;
            merged_tier.crashKills += stats.crashKills;
            merged_tier.unreachable += stats.unreachable;
        }
        for (const auto& [link, stats] : rep.report.linkFaults) {
            LinkFaultStats& merged_link = report.linkFaults[link];
            merged_link.downSeconds += stats.downSeconds;
            merged_link.drops += stats.drops;
        }
        report.events += rep.report.events;
        report.wallSeconds += rep.report.wallSeconds;
    }
    {
        // Pooled availability over the merged replications.
        const std::uint64_t denom =
            report.completed + report.failed + report.shed;
        report.availability =
            denom > 0 ? static_cast<double>(report.completed) /
                            static_cast<double>(denom)
                      : 1.0;
    }
    if (restoredCount == 0) {
        report.endToEnd.count = pooled.count();
        report.endToEnd.meanMs = pooled.mean() * 1e3;
        report.endToEnd.p50Ms = pooled.p50() * 1e3;
        report.endToEnd.p95Ms = pooled.p95() * 1e3;
        report.endToEnd.p99Ms = pooled.p99() * 1e3;
        report.endToEnd.maxMs = pooled.max() * 1e3;
    } else {
        // Journal-restored replications carry headline metrics but
        // not their latency sample stream, so the pool is partial:
        // approximate the point's percentiles with the
        // across-replication means of the per-run percentiles (the
        // report is already marked degraded above).
        std::uint64_t samples = 0;
        double max_ms = 0.0;
        for (const ReplicationResult& rep : replications) {
            if (!rep.ok())
                continue;
            samples += rep.report.endToEnd.count;
            max_ms = std::max(max_ms, rep.report.endToEnd.maxMs);
        }
        report.endToEnd.count = samples;
        report.endToEnd.meanMs = meanMs.mean();
        report.endToEnd.p50Ms = p50Ms.mean();
        report.endToEnd.p95Ms = p95Ms.mean();
        report.endToEnd.p99Ms = p99Ms.mean();
        report.endToEnd.maxMs = max_ms;
    }
    // Per-tier stats are not pooled: percentiles cannot be rebuilt
    // from the per-run LatencyStats.  Consumers needing tiers read
    // the individual replications.
    return report;
}

int
ReplicatedCurve::failedReplications() const
{
    int failed = 0;
    for (const ReplicatedPoint& point : points) {
        for (const ReplicationResult& rep : point.replications) {
            if (!rep.ok())
                ++failed;
        }
    }
    return failed;
}

SweepCurve
ReplicatedCurve::toSweepCurve() const
{
    SweepCurve curve;
    curve.label = label;
    curve.points.reserve(points.size());
    for (const ReplicatedPoint& point : points) {
        SweepPoint out;
        out.offeredQps = point.offeredQps;
        out.report = point.mergedReport();
        curve.points.push_back(std::move(out));
    }
    return curve;
}

SweepRunner::SweepRunner(RunnerOptions options)
    : options_(std::move(options))
{
    if (options_.jobs < 0)
        throw std::invalid_argument("jobs must be >= 0");
    if (options_.replications < 1)
        throw std::invalid_argument("replications must be >= 1");
    if (!(options_.confidence > 0.0 && options_.confidence < 1.0))
        throw std::invalid_argument("confidence must be in (0, 1)");
    if (!(options_.limits.wallTimeoutSeconds >= 0.0) ||
        !(options_.limits.stallWindowSeconds >= 0.0)) {
        throw std::invalid_argument(
            "wall timeout and stall window must be >= 0 seconds");
    }
}

int
SweepRunner::effectiveJobs() const
{
    if (options_.jobs > 0)
        return options_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
SweepRunner::addSweep(std::string label, std::vector<double> loads,
                      ReplicatedFactory factory)
{
    if (ran_)
        throw std::logic_error("cannot add sweeps after run()");
    if (loads.empty())
        throw std::invalid_argument("sweep needs at least one load");
    if (!factory)
        throw std::invalid_argument("sweep needs a factory");
    sweeps_.push_back(SweepSpec{std::move(label), std::move(loads),
                                std::move(factory)});
}

namespace {

struct JobSpec {
    std::size_t sweep = 0;
    std::size_t point = 0;
    int replication = 0;
    double qps = 0.0;
    std::uint64_t seed = 0;
    /** Restored from the resume journal; the worker skips it. */
    bool restored = false;
};

struct JobSlot {
    ReplicationResult result;
    stats::PercentileRecorder latencies;
    /** Original exception, kept for the Propagate policy. */
    std::exception_ptr raw;
};

JournalEntry
journalEntryFor(const JobSpec& job, const std::string& sweep_label,
                const JobSlot& slot)
{
    JournalEntry entry;
    entry.sweep = sweep_label;
    entry.point = job.point;
    entry.replication = job.replication;
    entry.qps = job.qps;
    entry.seed = job.seed;
    entry.status = slot.result.failure;
    entry.error = slot.result.error;
    if (slot.result.ok()) {
        const RunReport& report = slot.result.report;
        entry.traceDigest = slot.result.traceDigest;
        entry.achievedQps = report.achievedQps;
        entry.meanMs = report.endToEnd.meanMs;
        entry.p50Ms = report.endToEnd.p50Ms;
        entry.p95Ms = report.endToEnd.p95Ms;
        entry.p99Ms = report.endToEnd.p99Ms;
        entry.maxMs = report.endToEnd.maxMs;
        entry.completed = report.completed;
        entry.generated = report.generated;
        entry.events = report.events;
    }
    return entry;
}

/** Rebuilds the restorable part of a ReplicationResult from a
 *  journaled stat digest. */
ReplicationResult
restoreResult(const JournalEntry& entry)
{
    ReplicationResult result;
    result.seed = entry.seed;
    result.traceDigest = entry.traceDigest;
    result.restored = true;
    result.report.offeredQps = entry.qps;
    result.report.achievedQps = entry.achievedQps;
    result.report.generated = entry.generated;
    result.report.completed = entry.completed;
    result.report.events = entry.events;
    result.report.endToEnd.count = entry.completed;
    result.report.endToEnd.meanMs = entry.meanMs;
    result.report.endToEnd.p50Ms = entry.p50Ms;
    result.report.endToEnd.p95Ms = entry.p95Ms;
    result.report.endToEnd.p99Ms = entry.p99Ms;
    result.report.endToEnd.maxMs = entry.maxMs;
    return result;
}

}  // namespace

std::vector<ReplicatedCurve>
SweepRunner::run()
{
    if (ran_)
        throw std::logic_error("run() called twice");
    ran_ = true;

    // Lay the grid out sweep-major, then point, then replication, so
    // slot indices (and with them aggregation order) are independent
    // of execution interleaving.
    std::vector<JobSpec> grid;
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
        for (std::size_t p = 0; p < sweeps_[s].loads.size(); ++p) {
            for (int r = 0; r < options_.replications; ++r) {
                JobSpec job;
                job.sweep = s;
                job.point = p;
                job.replication = r;
                job.qps = sweeps_[s].loads[p];
                job.seed = replicationSeed(options_.baseSeed, r);
                grid.push_back(job);
            }
        }
    }

    std::vector<JobSlot> slots(grid.size());

    std::unique_ptr<JournalWriter> journal;
    if (!options_.journalPath.empty())
        journal = std::make_unique<JournalWriter>(options_.journalPath);

    // Resume: restore jobs the journal already recorded ok, provided
    // their identity (load, seed) still matches this grid — a changed
    // base seed or load list silently invalidates nothing, the
    // mismatched jobs simply re-run.
    if (!options_.resumePath.empty()) {
        const JournalIndex index = JournalIndex::load(options_.resumePath);
        // Crash-safety surfacing: a journal truncated mid-append is
        // usable, but the dropped lines must be visible.
        resumeWarnings_ = index.warnings;
        for (const std::string& warning : resumeWarnings_)
            std::fprintf(stderr, "uqsim: %s\n", warning.c_str());
        const bool copy_forward =
            journal != nullptr && options_.journalPath != options_.resumePath;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            JobSpec& job = grid[i];
            const JournalEntry* entry = index.find(
                sweeps_[job.sweep].label, job.point, job.replication);
            if (entry == nullptr || !entry->ok() ||
                entry->seed != job.seed || entry->qps != job.qps) {
                continue;
            }
            job.restored = true;
            slots[i].result = restoreResult(*entry);
            ++restoredJobs_;
            // When writing a different journal than we resumed from,
            // carry the restored entries forward so the new journal
            // is complete on its own.
            if (copy_forward)
                journal->append(*entry);
        }
    }

    std::size_t pending = 0;
    for (const JobSpec& job : grid) {
        if (!job.restored)
            ++pending;
    }

    // A failure to *journal* is a harness/IO problem, not a job
    // failure: it is collected here and always thrown, because a
    // journal the user asked for that silently stopped recording
    // would make a later --resume quietly wrong.
    std::mutex journal_error_mutex;
    std::string journal_error;

    std::atomic<std::size_t> next{0};

    auto worker = [&]() {
        while (true) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= grid.size())
                return;
            const JobSpec& job = grid[index];
            if (job.restored)
                continue;
            JobSlot& slot = slots[index];
            slot.result.seed = job.seed;

            RunControl control(options_.limits);
            std::unique_ptr<Simulation> simulation;
            try {
                simulation = sweeps_[job.sweep].factory(job.qps, job.seed);
                if (!simulation || !simulation->finalized()) {
                    throw std::logic_error(
                        "runner factory must return a finalized "
                        "simulation");
                }
                simulation->setRunControl(&control);
                slot.result.report = simulation->run();
                slot.result.traceDigest =
                    simulation->sim().traceDigest();
                slot.latencies = simulation->latencies();
            } catch (...) {
                slot.raw = std::current_exception();
                slot.result.failure = classifyException(
                    slot.raw, &slot.result.error,
                    simulation && simulation->finalized()
                        ? &simulation->sim()
                        : nullptr);
            }
            if (journal != nullptr) {
                try {
                    journal->append(journalEntryFor(
                        job, sweeps_[job.sweep].label, slot));
                } catch (const std::exception& error) {
                    std::lock_guard<std::mutex> lock(journal_error_mutex);
                    if (journal_error.empty())
                        journal_error = error.what();
                }
            }
        }
    };

    const int thread_count = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(effectiveJobs()), pending));
    if (thread_count <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(thread_count));
        for (int t = 0; t < thread_count; ++t)
            pool.emplace_back(worker);
        for (std::thread& thread : pool)
            thread.join();
    }

    if (!journal_error.empty()) {
        throw std::runtime_error("failed writing run journal: " +
                                 journal_error);
    }

    for (const JobSlot& slot : slots) {
        if (!slot.result.ok())
            ++failedJobs_;
    }
    if (options_.failurePolicy == FailurePolicy::Propagate) {
        for (const JobSlot& slot : slots) {
            if (slot.raw)
                std::rethrow_exception(slot.raw);
        }
    }

    // Single-threaded aggregation in grid order: merge order (and
    // with it floating-point rounding) never depends on the pool.
    // Failed replications are kept for inspection but contribute
    // nothing to the aggregates; restored ones contribute their
    // stat digests but cannot refill the latency pool.
    std::vector<ReplicatedCurve> curves(sweeps_.size());
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
        curves[s].label = sweeps_[s].label;
        curves[s].points.resize(sweeps_[s].loads.size());
        for (std::size_t p = 0; p < sweeps_[s].loads.size(); ++p) {
            curves[s].points[p].offeredQps = sweeps_[s].loads[p];
            curves[s].points[p].planned = options_.replications;
        }
    }
    for (std::size_t index = 0; index < grid.size(); ++index) {
        const JobSpec& job = grid[index];
        JobSlot& slot = slots[index];
        ReplicatedPoint& point = curves[job.sweep].points[job.point];
        if (slot.result.ok()) {
            const RunReport& report = slot.result.report;
            point.achievedQps.add(report.achievedQps);
            point.meanMs.add(report.endToEnd.meanMs);
            point.p50Ms.add(report.endToEnd.p50Ms);
            point.p95Ms.add(report.endToEnd.p95Ms);
            point.p99Ms.add(report.endToEnd.p99Ms);
            if (slot.result.restored)
                ++point.restoredCount;
            else
                point.pooled.merge(slot.latencies);
            ++point.merged;
        }
        slot.latencies.reset();
        point.replications.push_back(std::move(slot.result));
    }
    for (ReplicatedCurve& curve : curves) {
        for (ReplicatedPoint& point : curve.points) {
            point.meanCi = stats::meanConfidenceInterval(
                point.meanMs, options_.confidence);
            point.p99Ci = stats::meanConfidenceInterval(
                point.p99Ms, options_.confidence);
            point.achievedCi = stats::meanConfidenceInterval(
                point.achievedQps, options_.confidence);
        }
    }
    return curves;
}

ReplicatedPoint
runReplicated(const ReplicatedFactory& factory, double qps,
              const RunnerOptions& options)
{
    SweepRunner runner(options);
    runner.addSweep("replications", {qps}, factory);
    std::vector<ReplicatedCurve> curves = runner.run();
    return std::move(curves.front().points.front());
}

namespace {

std::string
ciCell(double mean, const stats::ConfidenceInterval& ci)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(3) << mean;
    if (ci.valid())
        out << "±" << std::setprecision(3) << ci.halfWidth;
    return out.str();
}

}  // namespace

std::string
formatReplicatedTable(const std::vector<ReplicatedCurve>& curves)
{
    std::ostringstream out;
    out << std::fixed;
    out << std::setw(12) << "load_qps";
    for (const ReplicatedCurve& curve : curves) {
        out << " | " << std::setw(10) << (curve.label + ".ach")
            << ' ' << std::setw(14) << (curve.label + ".mean")
            << ' ' << std::setw(14) << (curve.label + ".p99");
    }
    out << '\n';
    std::size_t rows = 0;
    for (const ReplicatedCurve& curve : curves)
        rows = std::max(rows, curve.points.size());
    for (std::size_t row = 0; row < rows; ++row) {
        double load = 0.0;
        for (const ReplicatedCurve& curve : curves) {
            if (row < curve.points.size()) {
                load = curve.points[row].offeredQps;
                break;
            }
        }
        out << std::setprecision(0) << std::setw(12) << load;
        for (const ReplicatedCurve& curve : curves) {
            if (row >= curve.points.size()) {
                out << " | " << std::setw(10) << '-' << ' '
                    << std::setw(14) << '-' << ' ' << std::setw(14)
                    << '-';
                continue;
            }
            const ReplicatedPoint& point = curve.points[row];
            // Degraded points (failures left them short of planned
            // replications) are marked with a trailing '!'.
            const std::string p99_cell =
                ciCell(point.p99Ms.mean(), point.p99Ci) +
                (point.degraded() ? "!" : "");
            out << std::setprecision(0) << " | " << std::setw(10)
                << point.achievedQps.mean() << ' ' << std::setw(14)
                << ciCell(point.meanMs.mean(), point.meanCi) << ' '
                << std::setw(14) << p99_cell;
        }
        out << '\n';
    }
    return out.str();
}

}  // namespace runner
}  // namespace uqsim
