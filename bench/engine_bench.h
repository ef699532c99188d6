#ifndef UQSIM_BENCH_ENGINE_BENCH_H_
#define UQSIM_BENCH_ENGINE_BENCH_H_

/**
 * @file
 * The events/s harness of bench_engine, bench_incast and
 * bench_storage.  Each of those benches is only a list of sections;
 * this file times them, checks that they are deterministic, prints
 * one line per section and, given --out FILE, writes the
 * uqsim-bench-engine-v1 JSON that scripts/check_bench.py compares
 * against a committed BENCH_*.json baseline.
 *
 * One timing rule for every section: it runs at least --reps times
 * (default 5) and until its runs have measured 0.5 s of wall time,
 * so a short section's median is not one noisy run.  The reported
 * events/s is the median over the runs, and every run must
 * reproduce the first run's trace digest and event count.
 *
 * Usage: <bench> [--reps N] [--out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/json/json_value.h"
#include "uqsim/json/json_writer.h"

namespace uqsim {
namespace bench {

/** What one run of a section measured. */
struct SectionRun {
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    double wallSeconds = 0.0;
};

/** A named workload: run() sets it up, then runs and times it once. */
struct Section {
    std::string name;
    std::function<SectionRun()> run;
};

/** Times @p body, which drives @p sim, and reads @p sim's results. */
template <typename Body>
SectionRun
timeRun(const Simulator& sim, Body&& body)
{
    const auto start = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    return {sim.executedEvents(), sim.traceDigest(), wall.count()};
}

/** Builds @p bundle's simulation, then times its whole run. */
inline SectionRun
replay(const ConfigBundle& bundle)
{
    auto simulation = Simulation::fromBundle(bundle);
    return timeRun(simulation->sim(), [&] { simulation->run(); });
}

/** Wall time each section measures at least, over all its runs. */
constexpr double kMinMeasuredSeconds = 0.5;

/**
 * Parses [--reps N] [--out FILE], runs every section of @p sections
 * under the timing rule and reports it.  Returns main()'s exit
 * status: 1 for a usage error, a section whose runs disagree, or a
 * failed write.
 */
inline int
runSections(int argc, char** argv, const std::vector<Section>& sections)
{
    int reps = 5;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--reps" && i + 1 < argc) {
            reps = parseNumber<int>(arg, argv[++i], Range::Positive);
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--reps N] [--out FILE]\n",
                         argv[0]);
            return 1;
        }
    }

    json::JsonValue list = json::JsonValue::makeArray();
    for (const Section& section : sections) {
        std::vector<SectionRun> runs;
        double measured = 0.0;
        while (static_cast<int>(runs.size()) < reps ||
               measured < kMinMeasuredSeconds) {
            runs.push_back(section.run());
            measured += runs.back().wallSeconds;
        }
        const SectionRun& first = runs.front();
        std::vector<double> rates;
        for (const SectionRun& run : runs) {
            if (run.digest != first.digest || run.events != first.events) {
                std::fprintf(stderr,
                             "FATAL: %s not deterministic across reps\n",
                             section.name.c_str());
                return 1;
            }
            rates.push_back(static_cast<double>(run.events) /
                            run.wallSeconds);
        }
        std::sort(rates.begin(), rates.end());
        const double rate = rates[rates.size() / 2];
        const double wall = static_cast<double>(first.events) / rate;
        char digest[17];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(first.digest));
        std::printf("%-18s %10llu events  %8.3f s  %12.0f events/s  "
                    "digest %s\n",
                    section.name.c_str(),
                    static_cast<unsigned long long>(first.events), wall,
                    rate, digest);

        json::JsonValue entry = json::JsonValue::makeObject();
        entry.asObject()["name"] = section.name;
        entry.asObject()["events"] = first.events;
        entry.asObject()["wall_s"] = wall;
        entry.asObject()["events_per_sec"] = rate;
        entry.asObject()["trace_digest"] = digest;
        list.asArray().push_back(std::move(entry));
    }
    if (out.empty())
        return 0;

    json::JsonValue doc = json::JsonValue::makeObject();
    doc.asObject()["schema"] = "uqsim-bench-engine-v1";
    doc.asObject()["reps"] = reps;
    doc.asObject()["sections"] = std::move(list);
    std::ofstream file(out);
    file << json::writePretty(doc) << "\n";
    if (!file) {
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

}  // namespace bench
}  // namespace uqsim

#endif  // UQSIM_BENCH_ENGINE_BENCH_H_
