/**
 * @file
 * Tests for the Simulation facade: build protocol enforcement,
 * warm-up accounting, report contents, and the per-frequency
 * histogram path driven end to end through DVFS.
 */

#include <gtest/gtest.h>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"

namespace uqsim {
namespace {

TEST(SimulationFacade, BuildProtocolEnforced)
{
    Simulation simulation;
    // run() before finalize() is an error.
    EXPECT_THROW(simulation.run(), std::logic_error);
    EXPECT_THROW(simulation.dispatcher(), std::logic_error);
    // finalize without any path variants is an error.
    EXPECT_THROW(simulation.finalize(), std::logic_error);
}

TEST(SimulationFacade, FinalizeTwiceThrows)
{
    models::ThriftEchoParams params;
    params.run.qps = 100.0;
    params.run.durationSeconds = 0.2;
    params.run.warmupSeconds = 0.05;
    auto simulation =
        Simulation::fromBundle(models::thriftEchoBundle(params));
    EXPECT_THROW(simulation->finalize(), std::logic_error);
}

TEST(SimulationFacade, RunTwiceThrows)
{
    models::ThriftEchoParams params;
    params.run.qps = 100.0;
    params.run.durationSeconds = 0.2;
    params.run.warmupSeconds = 0.05;
    auto simulation =
        Simulation::fromBundle(models::thriftEchoBundle(params));
    simulation->run();
    EXPECT_THROW(simulation->run(), std::logic_error);
}

TEST(SimulationFacade, MachinesAfterDeploymentThrows)
{
    models::ThriftEchoParams params;
    params.run.qps = 100.0;
    const ConfigBundle bundle = models::thriftEchoBundle(params);
    Simulation simulation(bundle.options);
    simulation.loadMachinesJson(bundle.machines);
    for (const auto& service : bundle.services)
        simulation.loadServiceJson(service);
    simulation.loadGraphJson(bundle.graph);
    EXPECT_THROW(simulation.loadMachinesJson(bundle.machines),
                 std::logic_error);
}

TEST(SimulationFacade, AddClientAfterFinalizeThrows)
{
    models::ThriftEchoParams params;
    params.run.qps = 100.0;
    auto simulation =
        Simulation::fromBundle(models::thriftEchoBundle(params));
    workload::ClientConfig config;
    EXPECT_THROW(simulation->addClient(config), std::logic_error);
}

TEST(SimulationFacade, WarmupExcludedFromStatistics)
{
    // Constant load: the measured window is (duration - warmup), so
    // completions ~ qps * window, not qps * duration.
    models::ThriftEchoParams params;
    params.run.qps = 10000.0;
    params.run.warmupSeconds = 1.0;
    params.run.durationSeconds = 2.0;
    auto simulation =
        Simulation::fromBundle(models::thriftEchoBundle(params));
    const RunReport report = simulation->run();
    EXPECT_NEAR(static_cast<double>(report.completed), 10000.0,
                700.0);
    EXPECT_NEAR(report.achievedQps, 10000.0, 700.0);
    EXPECT_NEAR(report.offeredQps, 10000.0, 1e-9);
}

TEST(SimulationFacade, ReportCarriesEngineCounters)
{
    models::ThriftEchoParams params;
    params.run.qps = 1000.0;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.6;
    auto simulation =
        Simulation::fromBundle(models::thriftEchoBundle(params));
    const RunReport report = simulation->run();
    EXPECT_GT(report.events, 1000u);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_FALSE(report.tiers.empty());
}

TEST(SimulationFacade, PerFrequencyHistogramsDriveLatency)
{
    // The paper's power-management methodology: per-frequency
    // processing-time distributions.  At nominal frequency the stage
    // costs 10 us; the 1.2 GHz table entry says 100 us.  Dropping
    // the machine frequency must swap distributions.
    const char* service_json = R"({
        "service_name": "svc",
        "threads": 1,
        "stages": [
            {"stage_name": "proc", "stage_id": 0,
             "queue_type": "single", "batching": false,
             "service_time": {
                 "base": {"type": "deterministic", "value": 1e-5},
                 "per_frequency": {
                     "1.2": {"type": "deterministic",
                             "value": 1e-4}}}}],
        "paths": [{"path_id": 0, "path_name": "serve",
                   "stages": [0]}]})";
    auto run_at = [&](double frequency_ghz) {
        SimulationOptions options;
        options.warmupSeconds = 0.05;
        options.durationSeconds = 0.4;
        Simulation simulation(options);
        simulation.loadMachinesJson(json::parse(R"({
            "machines": [{"name": "m0", "cores": 2,
                          "dvfs_ghz": [1.2, 2.6]}]})"));
        simulation.loadServiceJson(json::parse(service_json));
        simulation.loadGraphJson(json::parse(R"({
            "services": [{"service": "svc",
                          "instances": [{"machine": "m0",
                                         "threads": 1}]}]})"));
        simulation.loadPathJson(json::parse(R"({
            "nodes": [{"node_id": 0, "service": "svc",
                       "children": []}]})"));
        simulation.loadClientJson(json::parse(R"({
            "front_service": "svc", "connections": 8,
            "load": 1000})"));
        simulation.finalize();
        simulation.cluster().machine("m0").dvfs().setFrequency(
            frequency_ghz);
        return simulation.run();
    };
    const RunReport nominal = run_at(2.6);
    const RunReport slow = run_at(1.2);
    // 90 us processing difference end-to-end.
    EXPECT_NEAR(slow.endToEnd.meanMs - nominal.endToEnd.meanMs, 0.09,
                0.01);
}

}  // namespace
}  // namespace uqsim
