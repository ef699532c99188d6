/**
 * @file
 * Resilience-policy sweep on the Fig. 14 tail-at-scale fan-out.
 *
 * A coordinator fans every request out to `fanout` leaf shards, each
 * replicated threefold behind a round-robin balancer.  The fault
 * plan degrades one replica of the first shard by 20x for the whole
 * run — the "1% slow servers" effect that dominates the fan-out p99
 * in the paper's §V-A study.  The sweep then replays the same seed
 * under increasingly aggressive per-hop policies and prints the tail
 * with and without mitigation:
 *
 *   none           the raw fan-out; p99 tracks the slow replica
 *   retry          2 ms hop timeout, 2 retries with jittered backoff
 *   hedge          a hedged duplicate after a fixed 1 ms delay
 *   hedge-p95      hedge delay adapted to the observed hop p95
 *
 * Usage: resilience_sweep [fanout] [qps] [seed]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "uqsim/core/app/dispatcher.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/stage_presets.h"

using namespace uqsim;

namespace {

constexpr int kReplicas = 3;

std::string
leafName(int shard)
{
    return "leaf" + std::to_string(shard);
}

/** One-stage "simple" service document. */
json::JsonValue
simpleService(const std::string& name, json::JsonValue dist_spec)
{
    json::JsonValue doc = json::JsonValue::makeObject();
    doc.asObject()["service_name"] = name;
    doc.asObject()["execution_model"] = "simple";
    json::JsonArray stages;
    stages.push_back(
        models::processingStage(0, "proc", std::move(dist_spec)));
    doc.asObject()["stages"] = json::JsonValue(std::move(stages));
    json::JsonArray paths;
    paths.push_back(models::pathJson(0, "serve", {0}));
    doc.asObject()["paths"] = json::JsonValue(std::move(paths));
    return doc;
}

/**
 * The fan-out bundle: coordinator -> {leaf0..leafF-1} -> join, every
 * leaf tier load balanced over kReplicas single-core replicas, and
 * leaf0's replica 0 slowed 20x by the fault plan.  @p policy is the
 * coordinator->leaf edge policy JSON ("" = unmitigated).
 */
ConfigBundle
fanoutBundle(int fanout, double qps, std::uint64_t seed,
             const std::string& policy)
{
    ConfigBundle bundle;
    bundle.options.seed = seed;
    bundle.options.warmupSeconds = 0.3;
    bundle.options.durationSeconds = 2.0;

    bundle.services.push_back(
        simpleService("coordinator", models::detUs(2.0)));
    for (int shard = 0; shard < fanout; ++shard) {
        bundle.services.push_back(
            simpleService(leafName(shard), models::expUs(100.0)));
    }

    std::string machines =
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,)"
        R"( "machines": [{"name": "coord", "cores": 8, "irq_cores": 0})";
    for (int shard = 0; shard < fanout; ++shard) {
        for (int replica = 0; replica < kReplicas; ++replica) {
            machines += R"(, {"name": ")" + leafName(shard) + "_" +
                        std::to_string(replica) +
                        R"(", "cores": 1, "irq_cores": 0})";
        }
    }
    bundle.machines = json::parse(machines + "]}");

    std::string pools, policies;
    for (int shard = 0; shard < fanout; ++shard) {
        if (shard > 0) {
            pools += ", ";
            policies += ", ";
        }
        // Appended piece by piece: GCC 12 at -O3 misreads "\"" + ...
        // as an overlapping memcpy (-Wrestrict).
        pools += '"';
        pools += leafName(shard);
        pools += "\": 32";
        policies += '"';
        policies += leafName(shard);
        policies += "\": ";
        policies += policy;
    }
    std::string graph =
        R"({"services": [{"service": "coordinator",)"
        R"( "connection_pools": {)" + pools + "},";
    if (!policy.empty())
        graph += R"( "policies": {)" + policies + "},";
    graph += R"( "instances": [{"machine": "coord", "threads": 8}]})";
    for (int shard = 0; shard < fanout; ++shard) {
        graph += R"(, {"service": ")" + leafName(shard) +
                 R"(", "lb_policy": "round_robin", "instances": [)";
        for (int replica = 0; replica < kReplicas; ++replica) {
            if (replica > 0)
                graph += ", ";
            graph += R"({"machine": ")" + leafName(shard) + "_" +
                     std::to_string(replica) + R"(", "threads": 1})";
        }
        graph += "]}";
    }
    bundle.graph = json::parse(graph + "]}");

    const int join_id = fanout + 1;
    std::string children;
    for (int shard = 0; shard < fanout; ++shard) {
        if (shard > 0)
            children += ", ";
        children += std::to_string(1 + shard);
    }
    std::string paths =
        R"({"paths": [{"probability": 1.0, "nodes":)"
        R"( [{"node_id": 0, "service": "coordinator",)"
        R"( "path": "serve", "children": [)" + children + "]}";
    for (int shard = 0; shard < fanout; ++shard) {
        paths += R"(, {"node_id": )" + std::to_string(1 + shard) +
                 R"(, "service": ")" + leafName(shard) +
                 R"(", "path": "serve", "children": [)" +
                 std::to_string(join_id) + "]}";
    }
    paths += R"(, {"node_id": )" + std::to_string(join_id) +
             R"(, "service": "coordinator", "path": "serve",)"
             R"( "children": []}]}]})";
    bundle.paths = json::parse(paths);

    bundle.client = json::parse(
        R"({"front_service": "coordinator", "connections": 64,)"
        R"( "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": )" + std::to_string(qps) +
        R"(}, "request_bytes": {"type": "deterministic",)"
        R"( "value": 128.0}})");

    bundle.faults = json::parse(
        R"({"faults": [{"type": "slow", "instance": "leaf0.0",)"
        R"( "start_s": 0.0, "end_s": 10.0, "factor": 20.0}]})");
    return bundle;
}

}  // namespace

int
main(int argc, char** argv)
{
    const int fanout = argc > 1 ? std::atoi(argv[1]) : 8;
    const double qps = argc > 2 ? std::atof(argv[2]) : 400.0;
    const std::uint64_t seed =
        argc > 3 ? static_cast<std::uint64_t>(std::atol(argv[3])) : 1;
    if (fanout <= 0 || qps <= 0.0) {
        std::fprintf(stderr,
                     "usage: %s [fanout] [qps] [seed]\n", argv[0]);
        return 1;
    }

    struct PolicyCase {
        const char* label;
        const char* json;
    };
    const PolicyCase cases[] = {
        {"none", ""},
        {"retry",
         R"({"timeout_s": 0.002, "retries": 2,)"
         R"( "backoff_base_s": 0.0002, "jitter": 0.2})"},
        {"hedge",
         R"({"timeout_s": 0.02, "retries": 1,)"
         R"( "hedge_delay_s": 0.001, "hedge_max": 1})"},
        {"hedge-p95",
         R"({"timeout_s": 0.02, "retries": 1,)"
         R"( "hedge_delay_s": 0.001, "hedge_percentile": 0.95,)"
         R"( "hedge_max": 1})"},
    };

    std::printf("fan-out %d over %d replicas/shard, leaf0.0 slowed "
                "20x, %.0f qps, seed %llu\n\n",
                fanout, kReplicas, qps,
                static_cast<unsigned long long>(seed));
    std::printf("%-10s %10s %10s %10s %9s %9s %7s\n", "policy",
                "p50 ms", "p99 ms", "mean ms", "retries", "hedges",
                "failed");
    double baseline_p99 = 0.0;
    for (const PolicyCase& policy_case : cases) {
        try {
            auto simulation = Simulation::fromBundle(
                fanoutBundle(fanout, qps, seed, policy_case.json));
            simulation->run();
            const stats::PercentileRecorder& lat =
                simulation->latencies();
            Dispatcher& dispatcher = simulation->dispatcher();
            const double p99 = lat.percentile(99.0);
            if (std::string(policy_case.label) == "none")
                baseline_p99 = p99;
            std::printf(
                "%-10s %10.3f %10.3f %10.3f %9llu %9llu %7llu\n",
                policy_case.label, lat.percentile(50.0) * 1e3,
                p99 * 1e3, lat.mean() * 1e3,
                static_cast<unsigned long long>(
                    dispatcher.retriesSent()),
                static_cast<unsigned long long>(
                    dispatcher.hedgesSent()),
                static_cast<unsigned long long>(
                    dispatcher.requestsFailed()));
        } catch (const std::exception& error) {
            std::fprintf(stderr, "error (%s): %s\n",
                         policy_case.label, error.what());
            return 1;
        }
    }
    if (baseline_p99 > 0.0) {
        std::printf("\nunmitigated p99 is the reference: each policy "
                    "row shows how much of the\nslow-replica tail the "
                    "mitigation recovers.\n");
    }
    return 0;
}
