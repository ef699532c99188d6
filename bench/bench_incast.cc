/**
 * @file
 * Flow-model benchmark: the perf trajectory for bandwidth-sharing
 * network simulation.
 *
 * Two workloads, each repeated at least --reps times and until its
 * runs add up to 0.5 s of wall time (median reported; every run's
 * digest and event count must agree):
 *
 *  - flow_churn     raw FlowModel stress: repeating incast waves on
 *                   an 8-sender star fabric, every start and finish
 *                   triggering an incremental max-min re-share.
 *                   Also asserts each wave's per-flow throughput is
 *                   within 5% of the analytical share cap/8.
 *  - replay_incast  the fan-out case study on a generated 4-ary,
 *                   4x-oversubscribed fat tree (64 hosts, flow
 *                   model), end to end through dispatcher, network,
 *                   IRQ, and instances.
 *
 * Each section prints its trace digest so FlowModel changes can be
 * checked for bit-exact determinism.  Results are written as JSON
 * (default BENCH_incast.json, schema uqsim-bench-engine-v1) so CI
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
#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"
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
 * Raw flow churn: @p waves incast waves of 8 simultaneous senders
 * into one receiver NIC.  Every flow start/finish re-shares the
 * allocation, so this isolates the FlowModel hot path from the rest
 * of the stack.  Verifies the max-min acceptance bound as it runs.
 */
SectionResult
runFlowChurn(int waves)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kSenders = 8;
    constexpr double kDownCap = 1.25e8;  // 1 Gb/s receiver NIC
    constexpr double kUpCap = 1.25e9;    // 10 Gb/s sender NICs
    constexpr std::uint32_t kBytes = 250000;

    uqsim::Simulator sim(2024);
    auto model = uqsim::hw::FlowModel::make();
    uqsim::hw::FlowModel* flow_model = model.get();
    const int down = flow_model->addLink({"down", kDownCap, 1e-6});
    for (int i = 0; i < kSenders; ++i) {
        const int up = flow_model->addLink(
            {"up" + std::to_string(i), kUpCap, 1e-6});
        flow_model->setRoute(1 + i, 0, {up, down});
    }
    uqsim::hw::Cluster cluster(sim, std::move(model));
    uqsim::hw::MachineConfig proto;
    proto.cores = 2;
    proto.irqCores = 0;
    proto.name = "recv";
    cluster.addMachine(proto);
    std::vector<uqsim::hw::Machine*> senders;
    for (int i = 0; i < kSenders; ++i) {
        proto.name = "send" + std::to_string(i);
        senders.push_back(&cluster.addMachine(proto));
    }
    uqsim::hw::Machine& receiver = cluster.machine("recv");

    const double share = kDownCap / kSenders;
    int bad_flows = 0;
    std::function<void(int)> startWave;
    startWave = [&](int wave) {
        if (wave >= waves)
            return;
        auto pending = std::make_shared<int>(kSenders);
        const uqsim::SimTime began = sim.now();
        for (int i = 0; i < kSenders; ++i) {
            cluster.network().transfer(
                senders[i], &receiver, kBytes,
                [&, pending, began, wave]() {
                    const double elapsed =
                        uqsim::simTimeToSeconds(sim.now() - began) -
                        2e-6;
                    const double throughput = kBytes / elapsed;
                    if (std::fabs(throughput - share) > share * 0.05)
                        ++bad_flows;
                    if (--*pending == 0)
                        startWave(wave + 1);
                });
        }
    };
    const auto start = Clock::now();
    sim.scheduleAt(0, [&]() { startWave(0); }, "incast/wave");
    sim.run();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (bad_flows != 0) {
        std::fprintf(stderr,
                     "FATAL: %d flows outside 5%% of the analytical "
                     "max-min share\n",
                     bad_flows);
        std::exit(1);
    }
    SectionResult result;
    result.name = "flow_churn";
    result.events = sim.executedEvents();
    result.wallSeconds = wall;
    result.eventsPerSec = static_cast<double>(result.events) / wall;
    result.digest = sim.traceDigest();
    return result;
}

uqsim::ConfigBundle
incastBundle()
{
    uqsim::models::FanoutFatTreeParams params;
    params.run.qps = 600.0;
    params.run.seed = 907;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 128;
    params.fanout = 16;
    params.responseBytes = 64 * 1024;
    return uqsim::models::fanoutFatTreeBundle(params);
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
    int waves = 50000;
    std::string out = "BENCH_incast.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            reps = 2;
            waves = 5000;
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
        {"flow_churn", [&]() { return runFlowChurn(waves); }},
        {"replay_incast",
         []() { return runReplay("replay_incast", incastBundle()); }},
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
