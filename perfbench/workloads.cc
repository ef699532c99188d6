#include "workloads.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"

namespace perfbench {

namespace {

using uqsim::ConfigBundle;
using uqsim::models::RunParams;

RunParams
runParams(double qps, std::uint64_t seed, double warmup, double horizon,
          int connections)
{
    RunParams run;
    run.qps = qps;
    run.seed = seed;
    run.warmupSeconds = warmup;
    run.durationSeconds = horizon;
    run.clientConnections = connections;
    return run;
}

std::string
fmt(double value)
{
    std::ostringstream out;
    out.precision(4);
    out << value;
    return out.str();
}

// ------------------------------------------------------------ social

constexpr double kSocialSeconds = 2.0;
constexpr double kSocialWarmup = 0.5;

Phase
socialPhase(double qps, bool check_light_load)
{
    Phase phase;
    phase.name = "social@" + fmt(qps / 1000.0) + "k";
    phase.simSeconds = kSocialSeconds;
    phase.bundle = [qps](std::uint64_t seed) {
        uqsim::models::SocialNetworkParams params;
        params.run = runParams(qps, seed, kSocialWarmup, kSocialSeconds,
                               320);
        return uqsim::models::socialNetworkBundle(params);
    };
    phase.shapeCheck = [check_light_load](const ShapeInputs& in) {
        if (!check_light_load)
            return std::string();
        const double ratio = in.report.achievedQps / in.report.offeredQps;
        if (std::fabs(ratio - 1.0) > 0.1)
            return "achieved/offered " + fmt(ratio) +
                   " at light load, want 1 +- 0.1";
        return std::string();
    };
    return phase;
}

// ------------------------------------------------------------ incast

constexpr double kIncastSeconds = 8.0;

Phase
incastPhase()
{
    Phase phase;
    phase.name = "incast";
    phase.simSeconds = kIncastSeconds;
    phase.bundle = [](std::uint64_t seed) {
        uqsim::models::FanoutFatTreeParams params;
        params.run = runParams(600.0, seed, 0.25, kIncastSeconds, 128);
        params.fanout = 16;
        params.responseBytes = 64 * 1024;
        return uqsim::models::fanoutFatTreeBundle(params);
    };
    phase.shapeCheck = [](const ShapeInputs& in) {
        if (in.flowReshares == 0)
            return std::string("no FlowModel re-shares");
        return std::string();
    };
    return phase;
}

// ---------------------------------------------------------- stampede

constexpr double kStampedeSeconds = 20.0;
constexpr double kStampedeUtilLow = 0.75;
constexpr double kStampedeUtilHigh = 0.97;

Phase
stampedePhase()
{
    Phase phase;
    phase.name = "stampede";
    phase.simSeconds = kStampedeSeconds;
    phase.bundle = [](std::uint64_t seed) {
        uqsim::models::CacheStampedeParams params;
        params.run = runParams(4400.0, seed, 0.5, kStampedeSeconds, 320);
        params.hitRate = 0.35;
        params.writeFraction = 0.2;
        params.diskReadMBps = 200.0;
        params.diskQueueDepth = 32;
        return uqsim::models::cacheStampedeBundle(params);
    };
    phase.shapeCheck = [](const ShapeInputs& in) {
        if (in.diskReads == 0 || in.diskWrites == 0)
            return std::string("store disk saw no reads or no writes");
        const double util =
            in.report.disks.empty()
                ? 0.0
                : in.report.disks.begin()->second.utilization;
        if (util < kStampedeUtilLow || util > kStampedeUtilHigh)
            return "store disk utilisation " + fmt(util) + ", want " +
                   fmt(kStampedeUtilLow) + ".." + fmt(kStampedeUtilHigh);
        return std::string();
    };
    return phase;
}

// ------------------------------------------------------ flaky_fabric

constexpr double kFlakySeconds = 3.0;

/** Stochastic outages on agg/core links of the pod-1 -> h0 response
 *  path, a brown-out on the proxy's down-link, and a timeout / retry
 *  / adaptive-hedge policy on the proxy -> leaf hops. */
ConfigBundle
flakyFabricBundle(std::uint64_t seed)
{
    uqsim::models::FanoutFatTreeParams params;
    params.run = runParams(400.0, seed, 0.25, kFlakySeconds, 64);
    params.fanout = 24;
    params.responseBytes = 16 * 1024;
    ConfigBundle bundle = uqsim::models::fanoutFatTreeBundle(params);
    bundle.machines.asObject()["topology"]
        .asObject()["backup_routes"] = true;

    std::ostringstream faults;
    faults << R"({"faults": [)";
    const char* flaky_links[] = {
        "pod0:edge0:agg0:down", "pod0:agg0:core0:down",
        "pod1:agg0:core1:up", "pod1:edge0:agg0:up"};
    for (const char* link : flaky_links) {
        faults << R"({"type": "link_down", "link": ")" << link
               << R"(", "mtbf_s": 0.5, "mttr_s": 0.05}, )";
    }
    faults << R"({"type": "link_degraded", "link": "h0:down",)"
           << R"( "start_s": )" << fmt(kFlakySeconds * 0.4)
           << R"(, "end_s": )" << fmt(kFlakySeconds * 0.6)
           << R"(, "capacity_factor": 0.5, "latency_factor": 2.0}]})";
    bundle.faults = uqsim::json::parse(faults.str());

    const uqsim::json::JsonValue policy = uqsim::json::parse(
        R"({"nginx_web": {"timeout_s": 0.02, "retries": 2,)"
        R"( "backoff_base_s": 0.001, "backoff_mult": 2.0,)"
        R"( "jitter": 0.2, "hedge_delay_s": 0.005,)"
        R"( "hedge_percentile": 0.99}})");
    for (uqsim::json::JsonValue& service :
         bundle.graph.asObject()["services"].asArray()) {
        if (service.asObject()["service"].asString() == "nginx_fanout")
            service.asObject()["policies"] = policy;
    }
    return bundle;
}

Phase
flakyFabricPhase()
{
    Phase phase;
    phase.name = "flaky_fabric";
    phase.simSeconds = kFlakySeconds;
    phase.bundle = flakyFabricBundle;
    phase.shapeCheck = [](const ShapeInputs& in) {
        double down_seconds = 0.0;
        for (const auto& entry : in.report.linkFaults)
            down_seconds += entry.second.downSeconds;
        if (in.flowFailovers == 0)
            return std::string("no failovers");
        if (in.hedges == 0)
            return std::string("no hedges");
        if (down_seconds <= 0.0)
            return std::string("no link outage took effect");
        return std::string();
    };
    return phase;
}

}  // namespace

std::uint64_t
phaseSeed(std::uint64_t seed, std::size_t phase)
{
    return seed * 1000003ULL + phase;
}

Workload
makeWorkload(const std::string& name)
{
    Workload workload;
    workload.name = name;
    if (name == "social") {
        // Light load, the knee, and past saturation (Fig. 12b).
        workload.phases = {socialPhase(2000.0, true),
                           socialPhase(7000.0, false),
                           socialPhase(10000.0, false)};
        workload.checkpointPhase = 1;
    } else if (name == "incast") {
        workload.phases = {incastPhase()};
    } else if (name == "stampede") {
        workload.phases = {stampedePhase()};
    } else if (name == "flaky_fabric") {
        workload.phases = {flakyFabricPhase()};
    } else {
        throw std::invalid_argument("unknown workload \"" + name + "\"");
    }
    return workload;
}

}  // namespace perfbench
