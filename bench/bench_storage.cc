/**
 * @file
 * Storage-model benchmark: the perf trajectory for shared-bandwidth
 * disk simulation.
 *
 * Two workloads, each repeated at least --reps times and until its
 * runs add up to 0.5 s of wall time (median reported; every run's
 * digest and event count must agree):
 *
 *  - disk_churn       raw hw::Disk stress: repeating waves of 8
 *                     concurrent readers and 4 concurrent writers on
 *                     one disk, every start and finish triggering an
 *                     incremental re-share.  Also asserts each
 *                     wave's per-op finish time matches the
 *                     equal-split closed form within 5%.
 *  - replay_stampede  the cache-stampede case study (cache tier in
 *                     front of a disk-backed store at 35% hit rate),
 *                     end to end through client, network, cache, and
 *                     the contended store disk.
 *
 * Each section prints its trace digest so disk-model changes can be
 * checked for bit-exact determinism.  Results are written as JSON
 * (default BENCH_storage.json, schema uqsim-bench-engine-v1) so CI
 * can compare events/sec against the committed baseline with
 * scripts/check_bench.py.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/hw/disk.h"
#include "uqsim/json/json_value.h"
#include "uqsim/json/json_writer.h"
#include "uqsim/models/applications.h"

namespace {

using uqsim::json::JsonValue;

/** Wall time each section measures at least, over all its runs. */
constexpr double kMinMeasuredSeconds = 0.5;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

struct SectionResult {
    std::string name;
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t digest = 0;
};

/**
 * Raw disk churn: @p waves waves of 8 reads and 4 writes submitted
 * simultaneously against one disk.  Every op start/finish re-shares
 * its direction's bandwidth, so this isolates the disk hot path from
 * the rest of the stack.  Verifies the equal-split closed form as it
 * runs: with all ops of a direction equal-sized and simultaneous,
 * each wave's direction drains in ops * bytes / capacity.
 */
SectionResult
runDiskChurn(int waves)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kReaders = 8;
    constexpr int kWriters = 4;
    constexpr double kReadBps = 2e8;
    constexpr double kWriteBps = 1e8;
    constexpr std::uint64_t kBytes = 262144;

    uqsim::Simulator sim(2025);
    uqsim::hw::Disk::Config config;
    config.name = "bench";
    config.readBytesPerSecond = kReadBps;
    config.writeBytesPerSecond = kWriteBps;
    uqsim::hw::Disk disk(sim, "host", config);

    const double read_expect = kReaders * kBytes / kReadBps;
    const double write_expect = kWriters * kBytes / kWriteBps;
    int bad_ops = 0;
    std::function<void(int)> startWave;
    startWave = [&](int wave) {
        if (wave >= waves)
            return;
        auto pending = std::make_shared<int>(kReaders + kWriters);
        const uqsim::SimTime began = sim.now();
        auto submit = [&](uqsim::hw::Disk::OpKind kind,
                          double expected) {
            disk.submit(kind, kBytes, 0.0,
                        [&, pending, began, wave, expected]() {
                            const double elapsed =
                                uqsim::simTimeToSeconds(sim.now() -
                                                        began);
                            if (std::fabs(elapsed - expected) >
                                expected * 0.05)
                                ++bad_ops;
                            if (--*pending == 0)
                                startWave(wave + 1);
                        },
                        "bench/op");
        };
        for (int i = 0; i < kReaders; ++i)
            submit(uqsim::hw::Disk::OpKind::Read, read_expect);
        for (int i = 0; i < kWriters; ++i)
            submit(uqsim::hw::Disk::OpKind::Write, write_expect);
    };
    const auto start = Clock::now();
    sim.scheduleAt(0, [&]() { startWave(0); }, "bench/wave");
    sim.run();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (bad_ops != 0) {
        std::fprintf(stderr,
                     "FATAL: %d ops outside 5%% of the equal-split "
                     "closed form\n",
                     bad_ops);
        std::exit(1);
    }
    SectionResult result;
    result.name = "disk_churn";
    result.events = sim.executedEvents();
    result.wallSeconds = wall;
    result.eventsPerSec = static_cast<double>(result.events) / wall;
    result.digest = sim.traceDigest();
    return result;
}

uqsim::ConfigBundle
stampedeBundle()
{
    uqsim::models::CacheStampedeParams params;
    params.run.qps = 3000.0;
    params.run.seed = 811;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 256;
    params.hitRate = 0.35;
    return uqsim::models::cacheStampedeBundle(params);
}

SectionResult
runReplay(const std::string& name, const uqsim::ConfigBundle& bundle)
{
    using Clock = std::chrono::steady_clock;
    auto simulation = uqsim::Simulation::fromBundle(bundle);
    const auto start = Clock::now();
    const uqsim::RunReport report = simulation->run();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    SectionResult result;
    result.name = name;
    result.events = report.events;
    result.wallSeconds = wall;
    result.eventsPerSec = static_cast<double>(report.events) / wall;
    result.digest = simulation->sim().traceDigest();
    return result;
}

SectionResult
best(std::vector<SectionResult> reps)
{
    std::vector<double> rates;
    rates.reserve(reps.size());
    for (const SectionResult& rep : reps)
        rates.push_back(rep.eventsPerSec);
    SectionResult result = reps.front();
    for (const SectionResult& rep : reps) {
        if (rep.digest != result.digest || rep.events != result.events) {
            std::fprintf(stderr,
                         "FATAL: %s not deterministic across reps\n",
                         result.name.c_str());
            std::exit(1);
        }
    }
    result.eventsPerSec = median(rates);
    result.wallSeconds =
        static_cast<double>(result.events) / result.eventsPerSec;
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    int reps = 5;
    int waves = 100000;
    std::string out = "BENCH_storage.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            reps = 2;
            waves = 10000;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--reps N] [--out FILE] [--quick]\n",
                         argv[0]);
            return 2;
        }
    }
    if (reps < 1)
        reps = 1;

    std::vector<SectionResult> sections;
    struct Spec {
        const char* name;
        std::function<SectionResult()> run;
    };
    const Spec specs[] = {
        {"disk_churn", [&]() { return runDiskChurn(waves); }},
        {"replay_stampede",
         []() {
             return runReplay("replay_stampede", stampedeBundle());
         }},
    };
    for (const Spec& spec : specs) {
        // A section shorter than kMinMeasuredSeconds repeats until it
        // has measured that long, so its median is not one noisy run.
        std::vector<SectionResult> rep_results;
        double measured = 0.0;
        while (static_cast<int>(rep_results.size()) < reps ||
               measured < kMinMeasuredSeconds) {
            rep_results.push_back(spec.run());
            measured += rep_results.back().wallSeconds;
        }
        const SectionResult section = best(std::move(rep_results));
        std::printf(
            "%-18s %10llu events  %8.3f s  %12.0f events/s  "
            "digest %016llx\n",
            section.name.c_str(),
            static_cast<unsigned long long>(section.events),
            section.wallSeconds, section.eventsPerSec,
            static_cast<unsigned long long>(section.digest));
        sections.push_back(section);
    }

    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["schema"] = "uqsim-bench-engine-v1";
    doc.asObject()["reps"] = reps;
    JsonValue list = JsonValue::makeArray();
    for (const SectionResult& section : sections) {
        JsonValue entry = JsonValue::makeObject();
        entry.asObject()["name"] = section.name;
        entry.asObject()["events"] = section.events;
        entry.asObject()["wall_s"] = section.wallSeconds;
        entry.asObject()["events_per_sec"] = section.eventsPerSec;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(section.digest));
        entry.asObject()["trace_digest"] = digest;
        list.asArray().push_back(std::move(entry));
    }
    doc.asObject()["sections"] = std::move(list);
    std::ofstream file(out);
    file << uqsim::json::writePretty(doc) << "\n";
    if (!file) {
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
