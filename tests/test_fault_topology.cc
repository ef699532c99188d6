/**
 * @file
 * Topology-aware fault injection tests: link up/down/degraded state
 * on the FlowModel, deterministic failover over backup routes,
 * partitions and unreachable verdicts, switch_down on generated fat
 * trees, faults.json schema validation for the topology kinds,
 * FaultScheduler window-shift clamping, end-to-end report counters,
 * and digest determinism of link-fault runs across runner thread
 * counts (including composition with cluster-wide network windows).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/explore/choosers.h"
#include "uqsim/explore/schedule.h"
#include "uqsim/fault/fault_plan.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/hw/topology.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace {

using hw::Cluster;
using hw::DropReason;
using hw::FatTreeConfig;
using hw::FlowModel;
using hw::MachineConfig;
using hw::Topology;
using hw::TopologyBuilder;
using json::JsonArray;
using json::JsonValue;

/** No IRQ cores: transfer timing is purely the flow model's. */
MachineConfig
bareMachine(const std::string& name)
{
    MachineConfig config;
    config.name = name;
    config.cores = 2;
    config.irqCores = 0;
    return config;
}

// --------------------------------------- failover on the FlowModel

/** Two machines, one primary link and one higher-latency backup. */
struct BackupFixture {
    Simulator sim;
    FlowModel* model = nullptr;
    std::unique_ptr<Cluster> cluster;
    int primary = -1;
    int backup = -1;

    explicit BackupFixture(
        FlowModel::Config config = FlowModel::Config{})
        : sim(5)
    {
        auto owned = FlowModel::make(config);
        model = owned.get();
        primary = model->addLink({"p", 1e6, 10e-6});
        backup = model->addLink({"b", 1e6, 30e-6});
        model->setRoute(0, 1, {primary});
        model->addBackupRoute(0, 1, {backup});
        cluster = std::make_unique<Cluster>(sim, std::move(owned));
        cluster->addMachine(bareMachine("a"));
        cluster->addMachine(bareMachine("b"));
    }

    hw::Machine* a() { return cluster->machines()[0]; }
    hw::Machine* b() { return cluster->machines()[1]; }
};

TEST(TopologyFaults, LinkDownFailsOverWithAnalyticalLatencyDelta)
{
    BackupFixture fix;
    fix.model->setLinkDown(fix.primary);

    SimTime done_at = -1;
    fix.cluster->network().transfer(fix.a(), fix.b(), 500000,
                                    [&]() { done_at = fix.sim.now(); });
    fix.sim.run();
    // Same 1 MB/s capacity, but the backup path pays 30 us of
    // propagation instead of 10 us: the failover's latency delta is
    // exactly the candidates' latency difference.
    EXPECT_EQ(done_at,
              secondsToSimTime(0.5) + secondsToSimTime(30e-6));
    EXPECT_EQ(fix.model->failovers(), 1u);
    EXPECT_EQ(fix.model->unreachableMessages(), 0u);
}

TEST(TopologyFaults, NoSurvivingRouteYieldsUnreachableVerdict)
{
    BackupFixture fix;
    fix.model->setLinkDown(fix.primary);
    fix.model->setLinkDown(fix.backup);

    bool done = false;
    DropReason reason = DropReason::FaultLoss;
    int drops = 0;
    fix.cluster->network().transfer(fix.a(), fix.b(), 500000,
                                    [&]() { done = true; },
                                    [&](DropReason r) {
                                        reason = r;
                                        ++drops;
                                    });
    fix.sim.run();
    EXPECT_FALSE(done);
    EXPECT_EQ(drops, 1);
    EXPECT_EQ(reason, DropReason::Unreachable);
    EXPECT_EQ(fix.model->unreachableMessages(), 1u);
    EXPECT_FALSE(fix.model->reachable(0, 1));

    // Repair either candidate and the pair is reachable again.
    fix.model->setLinkUp(fix.backup);
    EXPECT_TRUE(fix.model->reachable(0, 1));
}

TEST(TopologyFaults, DropPolicyDropsInFlightFlowsAndCounts)
{
    BackupFixture fix;  // default policy: Drop

    bool done = false;
    DropReason reason = DropReason::FaultLoss;
    SimTime dropped_at = -1;
    fix.sim.scheduleAt(0,
                       [&]() {
                           fix.cluster->network().transfer(
                               fix.a(), fix.b(), 500000,
                               [&]() { done = true; },
                               [&](DropReason r) {
                                   reason = r;
                                   dropped_at = fix.sim.now();
                               });
                       },
                       "test/start");
    fix.sim.scheduleAt(secondsToSimTime(0.2),
                       [&]() { fix.model->setLinkDown(fix.primary); },
                       "test/down");
    fix.sim.scheduleAt(secondsToSimTime(0.3),
                       [&]() { fix.model->setLinkUp(fix.primary); },
                       "test/up");
    fix.sim.run();

    EXPECT_FALSE(done);
    EXPECT_EQ(reason, DropReason::LinkDown);
    EXPECT_EQ(dropped_at, secondsToSimTime(0.2));
    EXPECT_EQ(fix.model->linkDropsTotal(), 1u);
    EXPECT_NEAR(fix.model->linkDownSeconds(fix.primary), 0.1, 1e-9);
    const auto summaries = fix.model->linkFaultSummaries();
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].name, "p");
    EXPECT_EQ(summaries[0].drops, 1u);
    EXPECT_NEAR(summaries[0].downSeconds, 0.1, 1e-9);
    EXPECT_EQ(fix.model->activeFlowCount(), 0u);
}

TEST(TopologyFaults, StallPolicyFinishesLateByExactOutage)
{
    FlowModel::Config config;
    config.onLinkDown = FlowModel::InFlightPolicy::Stall;
    BackupFixture fix(config);

    SimTime done_at = -1;
    fix.sim.scheduleAt(0,
                       [&]() {
                           fix.cluster->network().transfer(
                               fix.a(), fix.b(), 500000,
                               [&]() { done_at = fix.sim.now(); },
                               [&](DropReason) {
                                   FAIL() << "stalled flow dropped";
                               });
                       },
                       "test/start");
    fix.sim.scheduleAt(secondsToSimTime(0.2),
                       [&]() { fix.model->setLinkDown(fix.primary); },
                       "test/down");
    fix.sim.scheduleAt(secondsToSimTime(0.35),
                       [&]() { fix.model->setLinkUp(fix.primary); },
                       "test/up");
    fix.sim.run();

    // 0.5 s of transmission plus exactly the 0.15 s outage.
    ASSERT_GE(done_at, 0);
    EXPECT_NEAR(simTimeToSeconds(done_at), 0.65 + 10e-6, 1e-7);
    EXPECT_EQ(fix.model->linkDropsTotal(), 0u);
    EXPECT_EQ(fix.model->flowsFinished(), 1u);
}

TEST(TopologyFaults, RepairRestoresExactPreFaultAllocation)
{
    Simulator sim(9);
    auto owned = FlowModel::make();
    FlowModel* model = owned.get();
    const int shared = model->addLink({"shared", 1e6, 0.0});
    const int up0 = model->addLink({"up0", 1e9, 0.0});
    const int up1 = model->addLink({"up1", 1e9, 0.0});
    model->setRoute(1, 0, {up0, shared});
    model->setRoute(2, 0, {up1, shared});
    Cluster cluster(sim, std::move(owned));
    cluster.addMachine(bareMachine("recv"));
    cluster.addMachine(bareMachine("s0"));
    cluster.addMachine(bareMachine("s1"));

    for (int i = 1; i <= 2; ++i) {
        sim.scheduleAt(0,
                       [&, i]() {
                           cluster.network().transfer(
                               cluster.machines()[i],
                               cluster.machines()[0], 2000000,
                               []() {});
                       },
                       "test/start");
    }
    std::vector<double> before, after;
    sim.scheduleAt(secondsToSimTime(0.4),
                   [&]() { before = model->activeFlowRates(); },
                   "test/sample");
    sim.scheduleAt(
        secondsToSimTime(0.5),
        [&]() { model->setLinkDegradation(shared, 0.5, 1.0); },
        "test/degrade");
    sim.scheduleAt(secondsToSimTime(0.6),
                   [&]() { model->clearLinkDegradation(shared); },
                   "test/repair");
    sim.scheduleAt(secondsToSimTime(0.7),
                   [&]() { after = model->activeFlowRates(); },
                   "test/sample");
    sim.run();

    ASSERT_EQ(before.size(), 2u);
    ASSERT_EQ(after.size(), 2u);
    // Bitwise-identical max-min allocation after the repair.
    EXPECT_EQ(before[0], after[0]);
    EXPECT_EQ(before[1], after[1]);
    EXPECT_EQ(before[0], 500000.0);
    (void)up1;
}

TEST(TopologyFaults, NestedDownStateComposesOverlappingWindows)
{
    BackupFixture fix;
    fix.model->setLinkDown(fix.primary);  // link_down window opens
    fix.model->setLinkDown(fix.primary);  // switch_down overlaps
    EXPECT_FALSE(fix.model->linkUp(fix.primary));
    fix.model->setLinkUp(fix.primary);
    EXPECT_FALSE(fix.model->linkUp(fix.primary))
        << "one repair must not cancel two overlapping faults";
    fix.model->setLinkUp(fix.primary);
    EXPECT_TRUE(fix.model->linkUp(fix.primary));
    EXPECT_THROW(fix.model->setLinkUp(fix.primary), std::logic_error);
}

// --------------------------------------------------- partitions

TEST(TopologyFaults, PartitionBlocksOnlyCrossGroupPairs)
{
    FatTreeConfig config;
    config.arity = 2;
    config.hostsPerEdge = 2;  // 4 hosts, 2 pods
    const Topology topo = TopologyBuilder::fatTree(config);
    ASSERT_EQ(topo.hostCount, 4);
    Simulator sim(3);
    auto owned = topo.makeModel();
    FlowModel* model = owned.get();
    Cluster cluster(sim, std::move(owned));
    topo.populateCluster(cluster, bareMachine("proto"));

    model->setPartition({{0, 1}, {2, 3}});
    EXPECT_TRUE(model->partitionActive());
    EXPECT_TRUE(model->reachable(0, 1));
    EXPECT_TRUE(model->reachable(2, 3));
    EXPECT_FALSE(model->reachable(0, 2));
    EXPECT_FALSE(model->reachable(3, 1));

    bool done = false;
    DropReason reason = DropReason::FaultLoss;
    cluster.network().transfer(cluster.machines()[0],
                               cluster.machines()[2], 1000,
                               [&]() { done = true; },
                               [&](DropReason r) { reason = r; });
    sim.run();
    EXPECT_FALSE(done);
    EXPECT_EQ(reason, DropReason::Unreachable);
    EXPECT_EQ(model->unreachableMessages(), 1u);

    // Hosts outside every group are unaffected.
    model->setPartition({{0}, {2}});
    EXPECT_TRUE(model->reachable(1, 3));
    EXPECT_TRUE(model->reachable(0, 1));
    EXPECT_FALSE(model->reachable(0, 2));

    model->clearPartition();
    EXPECT_FALSE(model->partitionActive());
    EXPECT_TRUE(model->reachable(0, 2));
}

// ------------------------------------ switch_down on the fat tree

TEST(TopologyFaults, AggAndCoreSwitchDownNeverDisconnectsAnyPair)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 1.0;  // 16 hosts
    const Topology topo = TopologyBuilder::fatTree(config);
    Simulator sim(1);
    auto owned = topo.makeModel();
    FlowModel* model = owned.get();
    Cluster cluster(sim, std::move(owned));

    // Edge(8) + agg(8) + core(4) switches on a k=4 tree.
    EXPECT_EQ(model->switchNames().size(), 20u);
    int tested = 0;
    for (const std::string& name : model->switchNames()) {
        if (name.find(":agg") == std::string::npos &&
            name.rfind("core", 0) != 0)
            continue;  // edge switches are single-homed
        ++tested;
        const std::vector<int> links = model->switchLinks(name);
        for (int id : links)
            model->setLinkDown(id);
        for (int s = 0; s < topo.hostCount; ++s) {
            for (int d = 0; d < topo.hostCount; ++d) {
                if (s == d)
                    continue;
                EXPECT_TRUE(model->reachable(s, d))
                    << name << " down disconnects " << s << " -> "
                    << d;
            }
        }
        for (int id : links)
            model->setLinkUp(id);
    }
    EXPECT_EQ(tested, 12);
}

TEST(TopologyFaults, EdgeSwitchDownDisconnectsOnlyItsHosts)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 1.0;
    const Topology topo = TopologyBuilder::fatTree(config);
    Simulator sim(1);
    auto owned = topo.makeModel();
    FlowModel* model = owned.get();
    Cluster cluster(sim, std::move(owned));

    // Hosts 0 and 1 live under pod0:edge0 and are single-homed.
    for (int id : model->switchLinks("pod0:edge0"))
        model->setLinkDown(id);
    EXPECT_FALSE(model->reachable(0, 5));
    EXPECT_FALSE(model->reachable(5, 1));
    EXPECT_TRUE(model->reachable(2, 3));
    EXPECT_TRUE(model->reachable(4, 15));
}

// ------------------------------------- generated backup candidates

TEST(TopologyFaults, FatTreeBackupsAreDeterministicAndWellFormed)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 1.0;
    const Topology topo = TopologyBuilder::fatTree(config);
    const int half = config.arity / 2;

    // Same edge: no diversity.  Same pod: one alternate agg.  Cross
    // pod: every other (agg, core) pair.
    EXPECT_TRUE(topo.backupRoutes(0, 1).empty());
    EXPECT_EQ(topo.backupRoutes(0, 2).size(),
              static_cast<std::size_t>(half - 1));
    EXPECT_EQ(topo.backupRoutes(0, 4).size(),
              static_cast<std::size_t>(half * half - 1));

    for (int s = 0; s < topo.hostCount; ++s) {
        for (int d = 0; d < topo.hostCount; ++d) {
            if (s == d)
                continue;
            const auto& primary = topo.route(s, d);
            for (const auto& alt : topo.backupRoutes(s, d)) {
                ASSERT_EQ(alt.size(), primary.size())
                    << s << " -> " << d;
                EXPECT_EQ(topo.links[alt.front()].name,
                          topo.hostNames[s] + ":up");
                EXPECT_EQ(topo.links[alt.back()].name,
                          topo.hostNames[d] + ":down");
                EXPECT_NE(alt, primary);
            }
        }
    }

    // Regenerating yields the identical candidate lists, and
    // disabling generation yields none.
    const Topology again = TopologyBuilder::fatTree(config);
    EXPECT_EQ(topo.backups, again.backups);
    FatTreeConfig bare = config;
    bare.backupRoutes = false;
    const Topology none = TopologyBuilder::fatTree(bare);
    EXPECT_TRUE(none.backups.empty());
    EXPECT_TRUE(none.backupRoutes(0, 4).empty());
}

// ----------------------- RouteFailover choice point + replayability

TEST(TopologyFaults, RouteFailoverChoicePointRecordsAndReplays)
{
    auto run = [](Chooser* chooser) {
        Simulator sim(5);
        auto owned = FlowModel::make();
        FlowModel* model = owned.get();
        const int primary = model->addLink({"p", 1e6, 10e-6});
        const int b1 = model->addLink({"b1", 1e6, 30e-6});
        const int b2 = model->addLink({"b2", 1e6, 50e-6});
        model->setRoute(0, 1, {primary});
        model->addBackupRoute(0, 1, {b1});
        model->addBackupRoute(0, 1, {b2});
        Cluster cluster(sim, std::move(owned));
        cluster.addMachine(bareMachine("a"));
        cluster.addMachine(bareMachine("b"));
        if (chooser != nullptr)
            sim.setChooser(chooser);
        model->setLinkDown(primary);
        SimTime done_at = -1;
        cluster.network().transfer(cluster.machines()[0],
                                   cluster.machines()[1], 500000,
                                   [&]() { done_at = sim.now(); });
        sim.run();
        return std::make_pair(done_at, sim.traceDigest());
    };

    // Default (no chooser): first surviving candidate, b1.
    const auto base = run(nullptr);
    EXPECT_EQ(base.first,
              secondsToSimTime(0.5) + secondsToSimTime(30e-6));

    explore::ExploreLimits limits;
    limits.routeFailoverChoices = 2;
    explore::RecordingChooser recorder(limits, {1});
    const auto explored = run(&recorder);
    // Option 1 = second survivor, b2: a genuinely different schedule.
    EXPECT_EQ(explored.first,
              secondsToSimTime(0.5) + secondsToSimTime(50e-6));
    EXPECT_NE(explored.second, base.second);
    ASSERT_EQ(recorder.decisions().size(), 1u);
    EXPECT_EQ(recorder.decisions()[0].kind,
              ChoiceKind::RouteFailover);
    EXPECT_EQ(recorder.decisions()[0].chosen, 1);

    // A strict replay of the recorded schedule is bit-identical.
    explore::Schedule schedule;
    schedule.limits = limits;
    schedule.choices = recorder.decisions();
    explore::ReplayChooser replayer(schedule);
    const auto replayed = run(&replayer);
    EXPECT_EQ(replayed.first, explored.first);
    EXPECT_EQ(replayed.second, explored.second);
    EXPECT_EQ(replayer.divergences(), 0u);
}

// ------------------------------------- faults.json schema (v2 kinds)

TEST(FaultsJsonTopology, UnknownKindSuggestsClosest)
{
    try {
        fault::FaultSpec::fromJson(json::parse(
            R"({"type": "lnik_down", "link": "x",
                "start_s": 0.1, "end_s": 0.2})"));
        FAIL() << "expected JsonError";
    } catch (const json::JsonError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("lnik_down"), std::string::npos);
        EXPECT_NE(what.find("link_down"), std::string::npos)
            << "expected a did-you-mean suggestion, got: " << what;
    }
}

TEST(FaultsJsonTopology, UnknownKeysGetDidYouMean)
{
    const struct {
        const char* text;
        const char* bad;
        const char* suggestion;
    } cases[] = {
        {R"({"type": "link_down", "lnk": "x",
             "start_s": 0.1, "end_s": 0.2})",
         "lnk", "link"},
        {R"({"type": "switch_down", "swich": "pod0:agg0",
             "start_s": 0.1, "end_s": 0.2})",
         "swich", "switch"},
        {R"({"type": "partition", "grups": [["a"], ["b"]],
             "start_s": 0.1, "end_s": 0.2})",
         "grups", "groups"},
        {R"({"type": "link_degraded", "link": "x",
             "capacity_fact": 0.5,
             "start_s": 0.1, "end_s": 0.2})",
         "capacity_fact", "capacity_factor"},
    };
    for (const auto& c : cases) {
        try {
            fault::FaultSpec::fromJson(json::parse(c.text));
            FAIL() << "expected JsonError for " << c.bad;
        } catch (const json::JsonError& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find(c.bad), std::string::npos) << what;
            EXPECT_NE(what.find(c.suggestion), std::string::npos)
                << "expected suggestion for " << c.bad << ", got: "
                << what;
        }
    }
}

TEST(FaultsJsonTopology, ValidatesWindowsAndRanges)
{
    auto reject = [](const std::string& text) {
        EXPECT_THROW(fault::FaultSpec::fromJson(json::parse(text)),
                     json::JsonError)
            << text;
    };
    // end_s must exceed start_s for every scripted window.
    reject(R"({"type": "link_down", "link": "x",
               "start_s": 0.2, "end_s": 0.2})");
    reject(R"({"type": "switch_down", "switch": "s",
               "start_s": 0.3, "end_s": 0.1})");
    // Stochastic link_down needs a positive repair time.
    reject(R"({"type": "link_down", "link": "x", "mtbf_s": 1.0})");
    // Degradation factors have hard ranges.
    reject(R"({"type": "link_degraded", "link": "x",
               "capacity_factor": 1.5,
               "start_s": 0.1, "end_s": 0.2})");
    reject(R"({"type": "link_degraded", "link": "x",
               "latency_factor": 0.5,
               "start_s": 0.1, "end_s": 0.2})");
    // Partitions need at least two non-empty groups.
    reject(R"({"type": "partition", "groups": [["a"]],
               "start_s": 0.1, "end_s": 0.2})");
    reject(R"({"type": "partition", "groups": [["a"], []],
               "start_s": 0.1, "end_s": 0.2})");
    // Required names.
    reject(R"({"type": "link_down", "start_s": 0.1, "end_s": 0.2})");
    reject(R"({"type": "switch_down",
               "start_s": 0.1, "end_s": 0.2})");

    // A valid spec of each kind parses.
    EXPECT_TRUE(fault::FaultSpec::fromJson(
                    json::parse(R"({"type": "link_down", "link": "x",
                                    "start_s": 0.1, "end_s": 0.2})"))
                    .topologyFault());
    EXPECT_TRUE(
        fault::FaultSpec::fromJson(
            json::parse(R"({"type": "partition",
                            "groups": [["a"], ["b", "c"]],
                            "start_s": 0.1, "end_s": 0.2})"))
            .topologyFault());
}

// --------------------------------------------- end-to-end bundles

SimulationOptions
runOptions(std::uint64_t seed, double warmup, double duration)
{
    SimulationOptions options;
    options.seed = seed;
    options.warmupSeconds = warmup;
    options.durationSeconds = duration;
    return options;
}

/** A one-stage "simple" service model. */
JsonValue
simpleService(const std::string& name, JsonValue dist_spec)
{
    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["service_name"] = name;
    doc.asObject()["execution_model"] = "simple";
    JsonArray stages;
    stages.push_back(models::processingStage(0, "proc",
                                             std::move(dist_spec)));
    doc.asObject()["stages"] = JsonValue(std::move(stages));
    JsonArray paths;
    paths.push_back(models::pathJson(0, "serve", {0}));
    doc.asObject()["paths"] = JsonValue(std::move(paths));
    return doc;
}

JsonValue
constantClient(const std::string& front, double qps, int connections)
{
    return json::parse(
        R"({"front_service": ")" + front + R"(", "connections": )" +
        std::to_string(connections) +
        R"(, "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": )" + std::to_string(qps) +
        R"(}, "request_bytes": {"type": "deterministic",)"
        R"( "value": 128.0}})");
}

/** front + leaf0 machines on an explicit flow fabric; the repeated
 *  (from, to) routes[] entries install backup candidates. */
JsonValue
fabricMachinesDoc(bool backups)
{
    std::string text = R"({
        "schema_version": 2,
        "network": {"model": "flow", "loopback_latency_us": 1,
                    "external_latency_us": 5},
        "links": [
            {"name": "fl", "gbps": 10, "latency_us": 5},
            {"name": "lf", "gbps": 10, "latency_us": 5},
            {"name": "fl_b", "gbps": 10, "latency_us": 25},
            {"name": "lf_b", "gbps": 10, "latency_us": 25}
        ],
        "routes": [
            {"from": "front", "to": "leaf0", "links": ["fl"]},
            {"from": "leaf0", "to": "front", "links": ["lf"]})";
    if (backups) {
        text += R"(,
            {"from": "front", "to": "leaf0", "links": ["fl_b"]},
            {"from": "leaf0", "to": "front", "links": ["lf_b"]})";
    }
    text += R"(
        ],
        "machines": [{"name": "front", "cores": 4, "irq_cores": 0},
                     {"name": "leaf0", "cores": 2, "irq_cores": 0}]
    })";
    return json::parse(text);
}

/** Two-tier front -> leaf app over the explicit fabric. */
ConfigBundle
fabricBundle(std::uint64_t seed, double qps, bool backups,
             const std::string& faults)
{
    ConfigBundle bundle;
    bundle.options = runOptions(seed, 0.1, 0.8);
    bundle.machines = fabricMachinesDoc(backups);
    bundle.services.push_back(
        simpleService("front", models::detUs(5.0)));
    bundle.services.push_back(
        simpleService("leaf", models::expUs(100.0)));
    bundle.graph = json::parse(
        R"({"services": [{"service": "front", "connection_pools":)"
        R"( {"leaf": 32}, "instances":)"
        R"( [{"machine": "front", "threads": 4}]},)"
        R"( {"service": "leaf", "instances":)"
        R"( [{"machine": "leaf0", "threads": 2}]}]})");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes":)"
        R"( [{"node_id": 0, "service": "front", "path": "serve",)"
        R"( "children": [1]},)"
        R"( {"node_id": 1, "service": "leaf", "path": "serve",)"
        R"( "children": [2]},)"
        R"( {"node_id": 2, "service": "front", "path": "serve",)"
        R"( "children": []}]}]})");
    bundle.client = constantClient("front", qps, 32);
    if (!faults.empty())
        bundle.faults = json::parse(faults);
    return bundle;
}

const FlowModel&
flowModelOf(Simulation& simulation)
{
    const auto* model = dynamic_cast<const FlowModel*>(
        &simulation.cluster().network().model());
    EXPECT_NE(model, nullptr);
    return *model;
}

TEST(TopologyFaultsEndToEnd, ScriptedLinkDownReportsAndFailsOver)
{
    auto simulation = Simulation::fromBundle(fabricBundle(
        11, 2000.0, true,
        R"({"faults": [{"type": "link_down", "link": "fl",
                        "start_s": 0.3, "end_s": 0.5}]})"));
    const RunReport report = simulation->run();

    EXPECT_GT(report.completed, 100u);
    EXPECT_GT(report.failovers, 0u);
    ASSERT_EQ(report.linkFaults.count("fl"), 1u);
    EXPECT_NEAR(report.linkFaults.at("fl").downSeconds, 0.2, 1e-9);
    const std::string text = report.toString();
    EXPECT_NE(text.find("failovers"), std::string::npos);
    EXPECT_NE(text.find("link fl"), std::string::npos);
    const JsonValue doc = report.toJson();
    EXPECT_NE(doc.find("link_faults"), nullptr);
}

TEST(TopologyFaultsEndToEnd, PartitionCountsUnreachablePerTier)
{
    auto simulation = Simulation::fromBundle(fabricBundle(
        13, 2000.0, false,
        R"({"faults": [{"type": "partition",
                        "groups": [["front"], ["leaf0"]],
                        "start_s": 0.3, "end_s": 0.5}]})"));
    const RunReport report = simulation->run();

    EXPECT_GT(report.unreachable, 0u);
    EXPECT_GT(report.failed, 0u);
    // Service keeps completing outside the window.
    EXPECT_GT(report.completed, 100u);
    std::uint64_t tier_unreachable = 0;
    for (const auto& entry : report.tierFaults)
        tier_unreachable += entry.second.unreachable;
    EXPECT_EQ(tier_unreachable, report.unreachable);
}

TEST(TopologyFaultsEndToEnd, TopologyFaultOnConstantModelIsConfigError)
{
    ConfigBundle bundle = fabricBundle(
        7, 500.0, false,
        R"({"faults": [{"type": "link_down", "link": "fl",
                        "start_s": 0.3, "end_s": 0.5}]})");
    bundle.machines = json::parse(
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,
            "machines": [{"name": "front", "cores": 4,
                          "irq_cores": 0},
                         {"name": "leaf0", "cores": 2,
                          "irq_cores": 0}]})");
    // The config error fires while the plan is scheduled (inside
    // finalize()), not deep into the run.
    EXPECT_THROW(Simulation::fromBundle(bundle), std::runtime_error);
}

TEST(TopologyFaultsEndToEnd, UnknownLinkNameGetsDidYouMean)
{
    try {
        Simulation::fromBundle(fabricBundle(
            7, 500.0, true,
            R"({"faults": [{"type": "link_down", "link": "fl_bb",
                            "start_s": 0.3, "end_s": 0.5}]})"));
        FAIL() << "expected a configuration error";
    } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("fl_bb"), std::string::npos);
        EXPECT_NE(what.find("fl_b"), std::string::npos)
            << "expected a did-you-mean suggestion, got: " << what;
    }
}

TEST(TopologyFaultsEndToEnd, StochasticLinkDownIsSeedDeterministic)
{
    auto run = [](std::uint64_t seed) {
        auto simulation = Simulation::fromBundle(fabricBundle(
            seed, 1500.0, true,
            R"({"faults": [{"type": "link_down", "link": "fl",
                            "mtbf_s": 0.2, "mttr_s": 0.05}]})"));
        const RunReport report = simulation->run();
        return std::make_pair(simulation->sim().traceDigest(),
                              report.completed);
    };
    const auto first = run(21);
    const auto second = run(21);
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

// ----------------------------- window-shift clamping regressions

TEST(TopologyFaultsEndToEnd, WindowShiftClampsToHorizonKeepingWidth)
{
    // Desired shift 3 * 0.2 s pushes the [0.35, 0.45] window past the
    // 0.6 s horizon; the clamp must land its *last* event exactly at
    // the horizon, preserving the window's 0.1 s width (a shifted
    // window may never close before it opens or lose its close
    // event).
    ConfigBundle bundle = fabricBundle(
        17, 1000.0, true,
        R"({"faults": [{"type": "link_down", "link": "fl",
                        "start_s": 0.35, "end_s": 0.45}]})");
    bundle.options.durationSeconds = 0.6;
    explore::ExploreLimits limits;
    limits.faultJitterChoices = 8;
    limits.faultJitterStepSeconds = 0.2;
    explore::RecordingChooser chooser(limits, {3});
    auto simulation = Simulation::fromBundle(bundle, &chooser);
    simulation->run();

    const FlowModel& model = flowModelOf(*simulation);
    const int id = model.linkId("fl");
    ASSERT_GE(id, 0);
    EXPECT_NEAR(model.linkDownSeconds(id), 0.1, 1e-9)
        << "clamped window lost its width";
    EXPECT_TRUE(model.linkUp(id))
        << "the close event must fire within the horizon";
    ASSERT_GE(chooser.decisions().size(), 1u);
    EXPECT_EQ(chooser.decisions()[0].kind, ChoiceKind::FaultJitter);
}

TEST(TopologyFaultsEndToEnd, WindowAtOrPastHorizonIsNeverShifted)
{
    // The whole window sits past the horizon: no shift may be
    // applied (a negative clamp would pull it *into* the run).
    ConfigBundle bundle = fabricBundle(
        17, 1000.0, true,
        R"({"faults": [{"type": "link_down", "link": "fl",
                        "start_s": 0.7, "end_s": 0.8}]})");
    bundle.options.durationSeconds = 0.6;
    explore::ExploreLimits limits;
    limits.faultJitterChoices = 8;
    limits.faultJitterStepSeconds = 0.2;
    explore::RecordingChooser chooser(limits, {3});
    auto simulation = Simulation::fromBundle(bundle, &chooser);
    const RunReport report = simulation->run();

    const FlowModel& model = flowModelOf(*simulation);
    const int id = model.linkId("fl");
    ASSERT_GE(id, 0);
    EXPECT_EQ(model.linkDownSeconds(id), 0.0);
    EXPECT_TRUE(model.linkUp(id));
    EXPECT_EQ(report.failovers, 0u);
}

// ------------------- digest determinism across runner thread counts

void
expectGridsIdentical(
    const std::vector<runner::ReplicatedCurve>& serial,
    const std::vector<runner::ReplicatedCurve>& other, int jobs)
{
    ASSERT_EQ(serial.size(), other.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
        ASSERT_EQ(serial[c].points.size(), other[c].points.size());
        for (std::size_t p = 0; p < serial[c].points.size(); ++p) {
            const auto& lhs = serial[c].points[p];
            const auto& rhs = other[c].points[p];
            ASSERT_EQ(lhs.replications.size(),
                      rhs.replications.size());
            for (std::size_t r = 0; r < lhs.replications.size();
                 ++r) {
                EXPECT_EQ(lhs.replications[r].traceDigest,
                          rhs.replications[r].traceDigest)
                    << "jobs=" << jobs << " point=" << p << " rep="
                    << r;
                EXPECT_EQ(lhs.replications[r].report.completed,
                          rhs.replications[r].report.completed);
            }
        }
    }
}

std::vector<runner::ReplicatedCurve>
runLinkFaultGrid(int jobs)
{
    runner::RunnerOptions options;
    options.jobs = jobs;
    options.replications = 2;
    options.baseSeed = 31;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "link_faults", {1500.0, 2500.0},
        [](double qps, std::uint64_t seed) {
            return Simulation::fromBundle(fabricBundle(
                seed, qps, true,
                R"({"faults": [
                    {"type": "link_down", "link": "fl",
                     "start_s": 0.3, "end_s": 0.45},
                    {"type": "link_degraded", "link": "lf",
                     "capacity_factor": 0.25, "latency_factor": 4,
                     "start_s": 0.5, "end_s": 0.65}]})"));
        });
    return sweep_runner.run();
}

TEST(TopologyFaultDeterminism, LinkFaultDigestsIndependentOfJobs)
{
    const auto serial = runLinkFaultGrid(1);
    for (int jobs : {2, 8})
        expectGridsIdentical(serial, runLinkFaultGrid(jobs), jobs);
}

/** Cluster-wide lossy/slow network window (the machine-granular
 *  fault kind) layered on a FlowModel fat tree, opening and closing
 *  mid-flow. */
std::vector<runner::ReplicatedCurve>
runNetworkWindowGrid(int jobs)
{
    runner::RunnerOptions options;
    options.jobs = jobs;
    options.replications = 2;
    options.baseSeed = 47;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "network_window_flow", {300.0, 600.0},
        [](double qps, std::uint64_t seed) {
            models::FanoutFatTreeParams params;
            params.run.qps = qps;
            params.run.seed = seed;
            params.run.warmupSeconds = 0.1;
            params.run.durationSeconds = 0.4;
            params.run.clientConnections = 64;
            params.fanout = 8;
            params.responseBytes = 16 * 1024;
            ConfigBundle bundle = models::fanoutFatTreeBundle(params);
            bundle.faults = json::parse(
                R"({"faults": [{"type": "network",
                                "start_s": 0.15, "end_s": 0.3,
                                "extra_latency_us": 200,
                                "loss_prob": 0.05}]})");
            return Simulation::fromBundle(bundle);
        });
    return sweep_runner.run();
}

TEST(TopologyFaultDeterminism, NetworkWindowOnFlowModelComposes)
{
    const auto serial = runNetworkWindowGrid(1);
    ASSERT_FALSE(serial.empty());
    // The lossy window must actually bite: some replication reports
    // network-loss faults.
    bool saw_faults = false;
    for (const auto& point : serial[0].points) {
        for (const auto& rep : point.replications) {
            if (rep.report.netDropped > 0)
                saw_faults = true;
        }
    }
    EXPECT_TRUE(saw_faults);
    for (int jobs : {2, 8})
        expectGridsIdentical(serial, runNetworkWindowGrid(jobs),
                             jobs);
}

}  // namespace
}  // namespace uqsim
