/**
 * @file
 * Host-cost benchmark for the simulator: one workload per process.
 *
 *   uqsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--scratch DIR]
 *   uqsim_perfbench --classify [--instance NAME]...   (labels on stdin)
 *
 * A run measures set-up (bundle generation + Simulation::fromBundle),
 * then repeats sliced runs of the workload (advanceToTime per 10 ms
 * simulated slice) for S seconds of host time, then checks a straight
 * run(), a mid-run checkpoint and its restores, and a traced run.
 * Every simulated run is one operation; an operation fails when it
 * throws, when its digest, event count or simulated outputs differ
 * from the first run of the same seed, when the traced digest differs
 * from the untraced one, or when it misses the workload's shape
 * check.  Host times are scaled to the reference host speed
 * (host_speed.h).  The last line of stdout is the JSON result; with
 * --trace 0 it carries the end-to-end metrics, with --trace 1 the
 * per-layer ones.  See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "host_speed.h"
#include "layers.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/snapshot/checkpoint.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** The value with exactly ten samples above it: the highest
 *  percentile that still has ten samples beyond it. */
double
tailBeyondTen(std::vector<double> values)
{
    if (values.size() < 11)
        return values.empty() ? 0.0
                              : *std::max_element(values.begin(),
                                                  values.end());
    std::sort(values.begin(), values.end());
    return values[values.size() - 11];
}

/** Host seconds of @p work at the reference host speed: timed between
 *  two calibration-kernel runs (host_speed.h). */
template <typename F>
double
scaledSeconds(F&& work)
{
    const double before = kernelSeconds();
    const Clock::time_point start = Clock::now();
    work();
    const double seconds = secondsSince(start);
    return seconds * referenceScale(before, kernelSeconds());
}

// ------------------------------------------------------------ tracing

/** Per-layer event counts and host time of a traced run. */
struct LayerTotals {
    std::array<std::uint64_t, kLayerCount> events{};
    std::array<double, kLayerCount> seconds{};
    std::set<std::string> unmappedLabels;
};

/**
 * Charges host time to event owners through the engine's read-only
 * trace hook: the hook fires before every event, so the time between
 * two hooks belongs to the earlier event (its action plus everything
 * it calls synchronously, plus the engine's per-event tracing cost).
 */
class Tracer {
  public:
    Tracer(uqsim::Simulation& simulation, LayerTotals& totals)
        : classifier_(instanceNames(simulation)), totals_(totals)
    {
        uqsim::Logger& logger = simulation.sim().logger();
        logger.setSink(nullptr);
        logger.setLevel(uqsim::LogLevel::Trace);
        logger.setHook([this](const std::string& line) { onLine(line); });
    }

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Charges the running event up to now; call when an advance
     *  returns. */
    void
    finish()
    {
        if (current_ != kNone)
            charge(Clock::now());
        current_ = kNone;
    }

  private:
    static constexpr int kNone = -1;

    static std::vector<std::string>
    instanceNames(uqsim::Simulation& simulation)
    {
        std::vector<std::string> names;
        for (const auto* instance :
             simulation.deployment().allInstances())
            names.push_back(instance->name());
        return names;
    }

    void
    onLine(const std::string& line)
    {
        const Clock::time_point now = Clock::now();
        static constexpr std::string_view kFire = " engine: fire ";
        const std::size_t at = line.find(kFire);
        if (at == std::string::npos)
            return;
        if (current_ != kNone)
            charge(now);
        const std::string_view label =
            std::string_view(line).substr(at + kFire.size());
        current_ = classifier_.classify(label);
        ++totals_.events[static_cast<std::size_t>(current_)];
        if (current_ == kUnmapped)
            totals_.unmappedLabels.emplace(label);
        last_ = now;
    }

    void
    charge(Clock::time_point now)
    {
        totals_.seconds[static_cast<std::size_t>(current_)] +=
            std::chrono::duration<double>(now - last_).count();
    }

    LabelClassifier classifier_;
    LayerTotals& totals_;
    int current_ = kNone;
    Clock::time_point last_;
};

// ---------------------------------------------------------- phase run

enum class Mode { Sliced, Straight, Traced };

/** What one simulated phase produced. */
struct PhaseStats {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t completions = 0;
    /** Simulated outputs pinned across runs of the same seed. */
    std::string outputs;
    std::string shapeError;
    /** Raw host seconds: slices plus finishRun(). */
    double wallSeconds = 0.0;
    /** Reference-speed scale of this phase's host times. */
    double scale = 1.0;
    double reportSeconds = 0.0;
    std::vector<double> sliceMs;
    std::size_t pendingPeak = 0;
    std::size_t poolSlots = 0;
    std::size_t flowActivePeak = 0;
    std::size_t appActivePeak = 0;
    std::uint64_t flows = 0;
    std::uint64_t flowReshares = 0;
    std::uint64_t failovers = 0;
    std::uint64_t diskOps = 0;
    std::uint64_t diskReshares = 0;
    std::uint64_t diskQueued = 0;
    double diskUtilization = 0.0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t breakerTrips = 0;
};

std::string
formatOutputs(const uqsim::RunReport& report, std::uint64_t completions)
{
    std::ostringstream out;
    out.precision(17);
    out << "offered=" << report.offeredQps
        << " achieved=" << report.achievedQps
        << " generated=" << report.generated
        << " completed=" << report.completed
        << " all_completions=" << completions
        << " failed=" << report.failed
        << " p50_ms=" << report.endToEnd.p50Ms
        << " p99_ms=" << report.endToEnd.p99Ms
        << " availability=" << report.availability;
    for (const auto& [name, disk] : report.disks)
        out << " disk[" << name << "].util=" << disk.utilization;
    return out.str();
}

PhaseStats
runPhase(const Phase& phase, const uqsim::ConfigBundle& bundle, Mode mode,
         LayerTotals* layers)
{
    auto simulation = uqsim::Simulation::fromBundle(bundle);
    std::uint64_t completions = 0;
    simulation->setCompletionListener(
        [&completions](const uqsim::Job&, double) { ++completions; });
    auto* flow = dynamic_cast<uqsim::hw::FlowModel*>(
        &simulation->cluster().network().model());
    uqsim::EventQueue& queue = simulation->sim().queue();
    std::optional<Tracer> tracer;
    if (mode == Mode::Traced)
        tracer.emplace(*simulation, *layers);

    PhaseStats stats;
    uqsim::RunReport report;
    const uqsim::SimTime horizon =
        uqsim::secondsToSimTime(simulation->options().durationSeconds);
    const Clock::time_point start = Clock::now();
    if (mode == Mode::Straight) {
        report = simulation->run();
    } else if (mode == Mode::Traced) {
        simulation->advanceToTime(horizon);
        tracer->finish();
        report = simulation->finishRun();
        tracer->finish();
    } else {
        const uqsim::SimTime slice = uqsim::secondsToSimTime(kSliceSeconds);
        for (uqsim::SimTime until = slice;; until += slice) {
            until = std::min(until, horizon);
            const Clock::time_point slice_start = Clock::now();
            simulation->advanceToTime(until);
            stats.sliceMs.push_back(secondsSince(slice_start) * 1e3);
            stats.pendingPeak = std::max(stats.pendingPeak, queue.size());
            if (flow != nullptr) {
                stats.flowActivePeak =
                    std::max(stats.flowActivePeak, flow->activeFlowCount());
            }
            stats.appActivePeak =
                std::max(stats.appActivePeak,
                         simulation->dispatcher().activeRequests());
            if (until == horizon)
                break;
        }
        report = simulation->finishRun();
    }
    stats.wallSeconds = secondsSince(start);
    if (mode == Mode::Sliced) {
        const Clock::time_point report_start = Clock::now();
        simulation->buildReport();
        stats.reportSeconds = secondsSince(report_start);
    }

    const uqsim::Simulator& sim = simulation->sim();
    stats.digest = sim.traceDigest();
    stats.events = sim.executedEvents();
    stats.cancelled =
        queue.scheduledCount() - stats.events - queue.size();
    stats.poolSlots = queue.poolCapacity();
    stats.completions = completions;
    stats.outputs = formatOutputs(report, completions);
    if (flow != nullptr) {
        stats.flows = flow->flowsStarted();
        stats.flowReshares = flow->reshareCount();
        stats.failovers = flow->failovers();
    }
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const uqsim::hw::Machine* machine :
         simulation->cluster().machines()) {
        for (const auto& disk : machine->disks()) {
            stats.diskOps += disk->opsSubmitted();
            stats.diskReshares += disk->reshareCount();
            stats.diskQueued += disk->queuedOps();
            reads += disk->readsCompleted();
            writes += disk->writesCompleted();
        }
    }
    for (const auto& entry : report.disks)
        stats.diskUtilization =
            std::max(stats.diskUtilization, entry.second.utilization);
    uqsim::Dispatcher& dispatcher = simulation->dispatcher();
    stats.retries = dispatcher.retriesSent();
    stats.hedges = dispatcher.hedgesSent();
    stats.breakerTrips = dispatcher.breakerTrips();
    if (phase.shapeCheck) {
        stats.shapeError = phase.shapeCheck(ShapeInputs{
            report, stats.flowReshares, stats.failovers, stats.hedges,
            reads, writes});
    }
    return stats;
}

// --------------------------------------------------------- benchmark

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Bench {
  public:
    Bench(Workload workload, std::uint64_t seed, double seconds,
          bool trace, std::string scratch)
        : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
          trace_(trace), scratch_(std::move(scratch))
    {
    }

    int run();

  private:
    using Op = std::vector<PhaseStats>;

    void fail(const std::string& what);
    void measureSetup();
    void measureOps();
    void checkStraight();
    void checkpointAndResume();
    void traced();
    /** Runs every phase; records a failure (and returns nothing)
     *  when a phase throws. */
    std::optional<Op> runOp(Mode mode, LayerTotals* layers);
    /** Compares @p op against the reference (first) op. */
    void checkOp(const Op& op, const char* what);
    void report();

    Workload workload_;
    std::uint64_t seed_;
    double seconds_;
    bool trace_;
    std::string scratch_;
    std::vector<uqsim::ConfigBundle> bundles_;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;

    std::vector<double> setupSeconds_;
    std::vector<double> bundleSeconds_;
    std::vector<double> buildSeconds_;
    std::optional<Op> reference_;
    std::vector<Op> ops_;
    std::vector<double> resumeSeconds_;
    double snapshotWriteSeconds_ = 0.0;
    std::uint64_t snapshotBytes_ = 0;
    std::uint64_t snapshotEvents_ = 0;
    std::uint64_t snapshotDigest_ = 0;
    LayerTotals layers_;
    double tracedSeconds_ = 0.0;
};

void
Bench::fail(const std::string& what)
{
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", workload_.name.c_str(),
                 what.c_str());
}

std::optional<Bench::Op>
Bench::runOp(Mode mode, LayerTotals* layers)
{
    ++attempted_;
    Op op;
    try {
        // A calibration-kernel run between phases brackets each one.
        double before = kernelSeconds();
        for (std::size_t i = 0; i < workload_.phases.size(); ++i) {
            op.push_back(
                runPhase(workload_.phases[i], bundles_[i], mode, layers));
            const double after = kernelSeconds();
            op.back().scale = referenceScale(before, after);
            before = after;
        }
    } catch (const std::exception& error) {
        fail(std::string("run threw: ") + error.what());
        return std::nullopt;
    }
    return op;
}

void
Bench::checkOp(const Op& op, const char* what)
{
    for (std::size_t i = 0; i < op.size(); ++i) {
        const PhaseStats& got = op[i];
        const std::string& phase = workload_.phases[i].name;
        if (!got.shapeError.empty()) {
            fail(std::string(what) + " " + phase +
                 " shape check: " + got.shapeError);
            return;
        }
        if (!reference_)
            continue;
        const PhaseStats& want = (*reference_)[i];
        if (got.digest != want.digest || got.events != want.events ||
            got.outputs != want.outputs) {
            fail(std::string(what) + " " + phase +
                 " differs from the first run of this seed: digest " +
                 std::to_string(got.digest) + " vs " +
                 std::to_string(want.digest) + ", events " +
                 std::to_string(got.events) + " vs " +
                 std::to_string(want.events) + ", outputs [" +
                 got.outputs + "] vs [" + want.outputs + "]");
            return;
        }
    }
}

void
Bench::measureSetup()
{
    // Set-up takes milliseconds: repeat it in batches, each bracketed
    // by calibration-kernel runs, and keep the median.
    constexpr std::size_t kMinReps = 9;
    constexpr double kBatchSeconds = 0.05;
    constexpr double kBudgetSeconds = 0.5;
    const Clock::time_point start = Clock::now();
    while (setupSeconds_.size() < kMinReps ||
           secondsSince(start) < kBudgetSeconds) {
        std::vector<std::pair<double, double>> batch;
        const double before = kernelSeconds();
        const Clock::time_point batch_start = Clock::now();
        do {
            double bundle_s = 0.0;
            double build_s = 0.0;
            for (std::size_t i = 0; i < workload_.phases.size(); ++i) {
                const Clock::time_point t0 = Clock::now();
                uqsim::ConfigBundle bundle =
                    workload_.phases[i].bundle(phaseSeed(seed_, i));
                const Clock::time_point t1 = Clock::now();
                auto simulation = uqsim::Simulation::fromBundle(bundle);
                const Clock::time_point t2 = Clock::now();
                bundle_s += std::chrono::duration<double>(t1 - t0).count();
                build_s += std::chrono::duration<double>(t2 - t1).count();
            }
            batch.emplace_back(bundle_s, build_s);
        } while (secondsSince(batch_start) < kBatchSeconds);
        const double scale = referenceScale(before, kernelSeconds());
        for (const auto& [bundle_s, build_s] : batch) {
            bundleSeconds_.push_back(bundle_s * scale);
            buildSeconds_.push_back(build_s * scale);
            setupSeconds_.push_back((bundle_s + build_s) * scale);
        }
    }
}

void
Bench::measureOps()
{
    constexpr std::size_t kMinOps = 3;
    const Clock::time_point start = Clock::now();
    while (ops_.size() < kMinOps || secondsSince(start) < seconds_) {
        std::optional<Op> op = runOp(Mode::Sliced, nullptr);
        if (!op) {
            if (ops_.empty() && failed_ >= kMinOps)
                return;
            continue;
        }
        checkOp(*op, "sliced run");
        if (!reference_)
            reference_ = *op;
        ops_.push_back(std::move(*op));
    }
}

void
Bench::checkStraight()
{
    std::optional<Op> op = runOp(Mode::Straight, nullptr);
    if (op)
        checkOp(*op, "straight run()");
}

void
Bench::checkpointAndResume()
{
    const std::size_t c = workload_.checkpointPhase;
    const uqsim::ConfigBundle& bundle = bundles_[c];
    const std::uint64_t want_digest = (*reference_)[c].digest;
    std::string path;
    ++attempted_;
    try {
        auto simulation = uqsim::Simulation::fromBundle(bundle);
        simulation->advanceToTime(uqsim::secondsToSimTime(
            simulation->options().durationSeconds / 2));
        snapshotWriteSeconds_ = scaledSeconds([&] {
            path = uqsim::snapshot::writeCheckpoint(
                *simulation, scratch_, workload_.name + "-bench");
        });
        snapshotBytes_ = std::filesystem::file_size(path);
        const uqsim::snapshot::SnapshotMeta meta =
            simulation->snapshotMeta();
        snapshotEvents_ = meta.executedEvents;
        snapshotDigest_ = meta.traceDigest;
        simulation->finishRun();
        if (simulation->sim().traceDigest() != want_digest)
            fail("checkpointed run's digest differs from the sliced run");
    } catch (const std::exception& error) {
        fail(std::string("checkpointed run threw: ") + error.what());
        return;
    }

    // Restore replays the prefix and validates every layer against the
    // checkpoint; the first restored run is also finished and its
    // final digest compared.
    constexpr int kResumeReps = 5;
    for (int rep = 0; rep < kResumeReps; ++rep) {
        ++attempted_;
        try {
            auto simulation = uqsim::Simulation::fromBundle(bundle);
            resumeSeconds_.push_back(scaledSeconds([&] {
                uqsim::snapshot::restoreFromSnapshot(*simulation, path);
            }));
            if (rep == 0) {
                simulation->finishRun();
                if (simulation->sim().traceDigest() != want_digest)
                    fail("resumed run's digest differs from the sliced "
                         "run");
            }
        } catch (const std::exception& error) {
            fail(std::string("resume threw: ") + error.what());
        }
    }
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
}

void
Bench::traced()
{
    if (trace_) {
        std::optional<Op> op = runOp(Mode::Traced, &layers_);
        if (op) {
            checkOp(*op, "traced run");
            for (const PhaseStats& phase : *op)
                tracedSeconds_ += phase.wallSeconds * phase.scale;
        }
    } else if (snapshotEvents_ > 0) {
        // Untraced runs still prove the hook is read-only, on the
        // checkpointed prefix: a traced replay to the checkpoint's
        // event count must reach the checkpoint's digest.
        ++attempted_;
        try {
            const std::size_t c = workload_.checkpointPhase;
            auto simulation = uqsim::Simulation::fromBundle(bundles_[c]);
            Tracer tracer(*simulation, layers_);
            simulation->advanceToEvents(snapshotEvents_);
            tracer.finish();
            if (simulation->sim().traceDigest() != snapshotDigest_)
                fail("traced prefix digest differs from the untraced one");
        } catch (const std::exception& error) {
            fail(std::string("traced prefix threw: ") + error.what());
        }
    }
    if (!layers_.unmappedLabels.empty()) {
        std::string labels;
        for (const std::string& label : layers_.unmappedLabels)
            labels += " " + label;
        std::fprintf(stderr,
                     "warning: traced events with no layer in layers.cc "
                     "(charged to \"unmapped\"):%s\n",
                     labels.c_str());
    }
}

int
Bench::run()
{
    for (std::size_t i = 0; i < workload_.phases.size(); ++i)
        bundles_.push_back(workload_.phases[i].bundle(phaseSeed(seed_, i)));
    kernelSeconds();  // the first kernel run also pays its page faults
    measureSetup();
    measureOps();
    if (!reference_) {
        fail("no sliced run completed");
    } else {
        checkStraight();
        checkpointAndResume();
        traced();
    }
    report();
    return 0;
}

void
Bench::report()
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    const double sim_seconds = [this] {
        double total = 0.0;
        for (const Phase& phase : workload_.phases)
            total += phase.simSeconds;
        return total;
    }();

    // Host times at the reference host speed.  Every sliced run does
    // identical work, so for each slice position the median over runs
    // drops momentary host hiccups; p50 and the tail are taken over
    // that per-position profile.
    std::vector<double> op_wall;
    std::vector<double> op_raw;
    std::vector<double> report_s;
    std::vector<std::vector<double>> slice_runs;
    for (const Op& op : ops_) {
        double wall = 0.0;
        double raw = 0.0;
        double rep = 0.0;
        std::vector<double> slices;
        for (const PhaseStats& phase : op) {
            wall += phase.wallSeconds * phase.scale;
            raw += phase.wallSeconds;
            rep += phase.reportSeconds * phase.scale;
            for (double ms : phase.sliceMs)
                slices.push_back(ms * phase.scale);
        }
        op_wall.push_back(wall);
        op_raw.push_back(raw);
        report_s.push_back(rep);
        slice_runs.push_back(std::move(slices));
    }
    std::vector<double> slice_profile(
        slice_runs.empty() ? 0 : slice_runs.front().size());
    for (std::size_t j = 0; j < slice_profile.size(); ++j) {
        std::vector<double> at;
        for (const std::vector<double>& run : slice_runs)
            at.push_back(run[j]);
        slice_profile[j] = median(std::move(at));
    }
    const std::size_t slices_per_op = slice_profile.size();
    const double wall = median(op_wall);

    std::uint64_t events = 0;
    std::uint64_t completions = 0;
    std::uint64_t cancelled = 0;
    std::size_t pending_peak = 0;
    std::size_t pool_slots = 0;
    PhaseStats sum;
    if (reference_) {
        for (const PhaseStats& phase : *reference_) {
            events += phase.events;
            completions += phase.completions;
            cancelled += phase.cancelled;
            pending_peak = std::max(pending_peak, phase.pendingPeak);
            pool_slots = std::max(pool_slots, phase.poolSlots);
            sum.flows += phase.flows;
            sum.flowReshares += phase.flowReshares;
            sum.failovers += phase.failovers;
            sum.flowActivePeak =
                std::max(sum.flowActivePeak, phase.flowActivePeak);
            sum.diskOps += phase.diskOps;
            sum.diskReshares += phase.diskReshares;
            sum.diskQueued += phase.diskQueued;
            sum.diskUtilization =
                std::max(sum.diskUtilization, phase.diskUtilization);
            sum.retries += phase.retries;
            sum.hedges += phase.hedges;
            sum.breakerTrips += phase.breakerTrips;
            sum.appActivePeak =
                std::max(sum.appActivePeak, phase.appActivePeak);
        }
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    end_to_end = {
        {"host_s_per_sim_s", wall / sim_seconds, "s/s"},
        {"slice_host_ms_p50", median(slice_profile), "ms"},
        {"slice_host_ms_tail", tailBeyondTen(slice_profile), "ms"},
        {"setup_s", median(setupSeconds_), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MB"},
        {"events_per_request",
         completions == 0 ? 0.0
                          : static_cast<double>(events) /
                                static_cast<double>(completions),
         "count"},
        {"resume_s", median(resumeSeconds_), "s"},
    };

    double traced_total = 0.0;
    for (double seconds : layers_.seconds)
        traced_total += seconds;
    per_layer = {
        {"engine.events", static_cast<double>(events), "count"},
        {"engine.events_per_host_s",
         wall > 0.0 ? static_cast<double>(events) / wall : 0.0, "1/s"},
        {"engine.cancelled_events", static_cast<double>(cancelled),
         "count"},
        {"engine.pending_peak", static_cast<double>(pending_peak),
         "count"},
        {"engine.pool_slots", static_cast<double>(pool_slots), "count"},
    };
    for (int layer = 0; layer < kLayerCount; ++layer) {
        const auto index = static_cast<std::size_t>(layer);
        per_layer.push_back({std::string(layerName(layer)) + ".events",
                             static_cast<double>(layers_.events[index]),
                             "count"});
        per_layer.push_back(
            {std::string(layerName(layer)) + ".host_share",
             traced_total > 0.0
                 ? 100.0 * layers_.seconds[index] / traced_total
                 : 0.0,
             "%"});
    }
    const std::vector<Metric> counters = {
        {"trace.overhead", wall > 0.0 ? tracedSeconds_ / wall : 0.0,
         "ratio"},
        {"hw.flow.flows", static_cast<double>(sum.flows), "count"},
        {"hw.flow.reshares", static_cast<double>(sum.flowReshares),
         "count"},
        {"hw.flow.failovers", static_cast<double>(sum.failovers),
         "count"},
        {"hw.flow.active_peak", static_cast<double>(sum.flowActivePeak),
         "count"},
        {"hw.disk.ops", static_cast<double>(sum.diskOps), "count"},
        {"hw.disk.reshares", static_cast<double>(sum.diskReshares),
         "count"},
        {"hw.disk.queued_ops", static_cast<double>(sum.diskQueued),
         "count"},
        {"hw.disk.utilization", sum.diskUtilization, "ratio"},
        {"app.retries", static_cast<double>(sum.retries), "count"},
        {"app.hedges", static_cast<double>(sum.hedges), "count"},
        {"app.breaker_trips", static_cast<double>(sum.breakerTrips),
         "count"},
        {"app.active_peak", static_cast<double>(sum.appActivePeak),
         "count"},
        {"setup.bundle_s", median(bundleSeconds_), "s"},
        {"setup.build_s", median(buildSeconds_), "s"},
        {"stats.report_s", median(report_s), "s"},
        {"snapshot.write_s", snapshotWriteSeconds_, "s"},
        {"snapshot.bytes", static_cast<double>(snapshotBytes_), "bytes"},
        {"snapshot.replayed_events", static_cast<double>(snapshotEvents_),
         "count"},
    };
    per_layer.insert(per_layer.end(), counters.begin(), counters.end());

    std::printf("workload %s  seed %llu  %zu sliced runs of %.3g "
                "simulated s, %zu slices of %g ms each\n",
                workload_.name.c_str(),
                static_cast<unsigned long long>(seed_), ops_.size(),
                sim_seconds, slices_per_op, kSliceSeconds * 1e3);
    std::printf("  host s per sliced run, raw -> at reference speed:");
    for (std::size_t i = 0; i < op_wall.size(); ++i)
        std::printf(" %.3f->%.3f", op_raw[i], op_wall[i]);
    std::printf("\n");
    if (reference_) {
        for (std::size_t i = 0; i < reference_->size(); ++i) {
            std::printf("  output %-14s %s\n",
                        workload_.phases[i].name.c_str(),
                        (*reference_)[i].outputs.c_str());
        }
    }
    std::printf("end-to-end (untraced; slice tail is p%.2f, the value "
                "with 10 slices above it):\n",
                slices_per_op > 0
                    ? 100.0 * static_cast<double>(slices_per_op - 10) /
                          static_cast<double>(slices_per_op)
                    : 0.0);
    for (const Metric& m : end_to_end)
        std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (trace_) {
        std::printf("per-layer (host_share charges synchronous calls to "
                    "the calling event, e.g. a FlowModel re-share "
                    "started from an IRQ completion counts as hw.irq):\n");
        for (const Metric& m : per_layer)
            std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

    const std::vector<Metric>& chosen = trace_ ? per_layer : end_to_end;
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted_
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < chosen.size(); ++i) {
        const double value =
            std::isfinite(chosen[i].value) ? chosen[i].value : 0.0;
        json << (i == 0 ? "" : ", ") << '"' << chosen[i].name
             << "\": {\"value\": " << value << ", \"unit\": \""
             << chosen[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

// -------------------------------------------------------------- main

int
classifyStdin(std::vector<std::string> instances)
{
    LabelClassifier classifier(std::move(instances));
    std::string label;
    while (std::getline(std::cin, label))
        std::printf("%s\t%s\n", label.c_str(),
                    layerName(classifier.classify(label)));
    return 0;
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n"
                 "       %s --classify [--instance NAME]...\n",
                 argv0, argv0);
    return 2;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool classify = false;
    std::string scratch = ".bench_build/perfbench-scratch";
    std::vector<std::string> instances;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--classify") {
            classify = true;
        } else if (arg == "--instance" && has_value) {
            instances.push_back(argv[++i]);
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            trace = std::string(argv[++i]) != "0";
        } else if (arg == "--scratch" && has_value) {
            scratch = argv[++i];
        } else {
            return perfbench::usage(argv[0]);
        }
    }
    if (classify)
        return perfbench::classifyStdin(std::move(instances));
    if (workload.empty() || seconds <= 0.0)
        return perfbench::usage(argv[0]);
    try {
        perfbench::Bench bench(perfbench::makeWorkload(workload), seed,
                               seconds, trace, scratch);
        return bench.run();
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
