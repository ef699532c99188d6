/**
 * @file
 * Property-style randomized tests: invariants that must hold for
 * any workload, checked under randomized operation sequences and
 * parameter sweeps.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "uqsim/random/distribution_factory.h"

#include "uqsim/core/app/dispatcher.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/core/service/stage_queue.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/random/histogram_distribution.h"

namespace uqsim {
namespace {

// ----------------------------------------------- queue conservation

/** Pops one batch into a fresh vector. */
std::vector<JobPtr>
pop(StageQueue& queue)
{
    std::vector<JobPtr> batch;
    queue.popBatch(batch);
    return batch;
}

struct QueueCase {
    const char* name;
    QueueType type;
    int batchLimit;
};

class QueueConservationTest
    : public ::testing::TestWithParam<QueueCase> {};

TEST_P(QueueConservationTest, RandomizedPushPopConservesJobs)
{
    const QueueCase& tc = GetParam();
    ConnectionTable connections;
    StageConfig config;
    config.queueType = tc.type;
    config.batching = tc.batchLimit > 0;
    config.batchLimit = tc.batchLimit;
    auto queue = StageQueue::create(config, &connections);
    JobFactory factory;
    random::Rng rng(2024);

    std::map<JobId, int> pushed;  // id -> connection
    std::map<JobId, bool> popped;
    std::size_t in_queue = 0;
    std::map<ConnectionId, std::deque<JobId>> per_conn_order;

    for (int step = 0; step < 5000; ++step) {
        const bool do_push = rng.nextBool(0.55) || in_queue == 0;
        if (do_push) {
            const auto conn =
                static_cast<ConnectionId>(rng.nextBounded(12));
            JobPtr job = factory.createRoot(0, 64);
            job->connectionId = conn;
            pushed[job->id] = static_cast<int>(conn);
            per_conn_order[conn].push_back(job->id);
            queue->push(std::move(job));
            ++in_queue;
        } else {
            const auto batch = pop(*queue);
            for (const JobPtr& job : batch) {
                // Never pop a job twice, never invent jobs.
                ASSERT_TRUE(pushed.count(job->id));
                ASSERT_FALSE(popped[job->id]);
                popped[job->id] = true;
                // FIFO per connection.
                auto& order = per_conn_order[job->connectionId];
                ASSERT_FALSE(order.empty());
                ASSERT_EQ(order.front(), job->id);
                order.pop_front();
            }
            ASSERT_LE(batch.size(), in_queue);
            in_queue -= batch.size();
        }
        ASSERT_EQ(queue->size(), in_queue);
        ASSERT_EQ(queue->hasEligible(), in_queue > 0);
    }
    // Drain and verify total conservation.
    while (queue->hasEligible()) {
        for (const JobPtr& job : pop(*queue))
            popped[job->id] = true;
    }
    std::size_t popped_count = 0;
    for (const auto& [id, was_popped] : popped)
        popped_count += was_popped ? 1 : 0;
    EXPECT_EQ(popped_count, pushed.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, QueueConservationTest,
    ::testing::Values(QueueCase{"single", QueueType::Single, 0},
                      QueueCase{"single_batched", QueueType::Single,
                                4},
                      QueueCase{"socket", QueueType::Socket, 4},
                      QueueCase{"epoll", QueueType::Epoll, 8}),
    [](const ::testing::TestParamInfo<QueueCase>& info) {
        return info.param.name;
    });

TEST(QueueBlockingProperty, NonOwnerJobsNeverEscapeBlockedConns)
{
    ConnectionTable connections;
    StageConfig config;
    config.queueType = QueueType::Epoll;
    config.batching = true;
    config.batchLimit = 8;
    auto queue = StageQueue::create(config, &connections);
    JobFactory factory;
    random::Rng rng(77);
    std::map<ConnectionId, JobId> owner;

    for (int step = 0; step < 4000; ++step) {
        const double action = rng.nextDouble();
        const auto conn =
            static_cast<ConnectionId>(rng.nextBounded(6));
        if (action < 0.5) {
            JobPtr job = factory.createRoot(0, 64);
            job->connectionId = conn;
            queue->push(std::move(job));
        } else if (action < 0.65) {
            const JobId root = factory.createRoot(0, 1)->rootId;
            connections.block(conn, root);
            if (!owner.count(conn))
                owner[conn] = connections.blockOwner(conn);
        } else if (action < 0.8) {
            if (owner.count(conn)) {
                connections.unblock(conn, owner[conn]);
                owner.erase(conn);
                if (connections.isBlocked(conn))
                    owner[conn] = connections.blockOwner(conn);
            }
        } else {
            for (const JobPtr& job : pop(*queue)) {
                const ConnectionId c = job->connectionId;
                if (connections.isBlocked(c)) {
                    EXPECT_EQ(job->rootId,
                              connections.blockOwner(c))
                        << "non-owner escaped blocked connection";
                }
            }
        }
    }
}

// ------------------------------------------- end-to-end conservation

class LoadSweepInvariantTest
    : public ::testing::TestWithParam<double> {};

TEST_P(LoadSweepInvariantTest, RequestsConservedAtAnyLoad)
{
    // At any offered load (below or above saturation), requests are
    // conserved: started == completed + still-active, and nothing
    // leaks.
    models::TwoTierParams params;
    params.run.qps = GetParam();
    params.run.warmupSeconds = 0.2;
    params.run.durationSeconds = 1.0;
    auto simulation =
        Simulation::fromBundle(models::twoTierBundle(params));
    simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();
    EXPECT_EQ(dispatcher.requestsStarted(),
              dispatcher.requestsCompleted() +
                  dispatcher.activeRequests());
    EXPECT_EQ(dispatcher.leakedHops(), 0u);
    EXPECT_EQ(dispatcher.leakedBlocks(), 0u);
    // Blocks outstanding must belong to active requests only.
    EXPECT_LE(dispatcher.blocks().totalPending(),
              dispatcher.activeRequests());
}

INSTANTIATE_TEST_SUITE_P(Loads, LoadSweepInvariantTest,
                         ::testing::Values(5000.0, 40000.0, 70000.0,
                                           120000.0),
                         [](const ::testing::TestParamInfo<double>&
                                info) {
                             return "qps" +
                                    std::to_string(static_cast<int>(
                                        info.param));
                         });

TEST(FanoutInvariant, EveryLeafServesEveryCompletedRequest)
{
    models::FanoutParams params;
    params.run.qps = 3000.0;
    params.run.warmupSeconds = 0.0;
    params.run.durationSeconds = 1.0;
    params.fanout = 8;
    auto simulation =
        Simulation::fromBundle(models::fanoutBundle(params));
    simulation->run();
    const auto completed =
        simulation->dispatcher().requestsCompleted();
    EXPECT_GT(completed, 0u);
    for (int i = 0; i < params.fanout; ++i) {
        // Each leaf processed at least every completed request (it
        // may also have processed requests still in flight).
        EXPECT_GE(simulation->deployment()
                      .instance("nginx_web", i)
                      .completedJobs(),
                  completed)
            << "leaf " << i;
    }
}

// ------------------------------------------------ histogram file I/O

TEST(HistogramFile, RoundTripThroughDisk)
{
    const std::string path = testing::TempDir() + "uqsim_hist.txt";
    {
        std::ofstream out(path);
        out << "# profiled memcached processing time (s)\n";
        out << "0.0 1e-05 10\n";
        out << "1e-05 2e-05 30\n";
        out << "\n";
        out << "2e-05 4e-05 5\n";
    }
    auto dist = random::HistogramDistribution::fromFile(path);
    EXPECT_EQ(dist->bins().size(), 3u);
    EXPECT_NEAR(dist->mean(),
                (10 * 0.5e-5 + 30 * 1.5e-5 + 5 * 3e-5) / 45.0, 1e-12);
    std::remove(path.c_str());
}

TEST(HistogramFile, UsableFromServiceTimeSpec)
{
    const std::string path = testing::TempDir() + "uqsim_hist2.txt";
    {
        std::ofstream out(path);
        out << "1e-05 3e-05 1\n";
    }
    json::JsonValue spec = json::JsonValue::makeObject();
    spec.asObject()["type"] = "histogram_file";
    spec.asObject()["path"] = path;
    auto dist = random::makeDistribution(spec);
    EXPECT_NEAR(dist->mean(), 2e-5, 1e-12);
    std::remove(path.c_str());
}

TEST(HistogramFile, ErrorsAreDescriptive)
{
    EXPECT_THROW(
        random::HistogramDistribution::fromFile("/no/such/file"),
        std::runtime_error);
    const std::string path = testing::TempDir() + "uqsim_bad.txt";
    {
        std::ofstream out(path);
        out << "0.0 garbage\n";
    }
    EXPECT_THROW(random::HistogramDistribution::fromFile(path),
                 std::runtime_error);
    std::remove(path.c_str());
}

// ----------------------------------- resilience accounting properties

using json::JsonArray;
using json::JsonValue;

/** One point in the (seed x policy) metamorphic grid. */
struct ResilienceCase {
    const char* name;
    std::uint64_t seed;
    /** Edge policy JSON for front->leaf ("" = none). */
    const char* policy;
    /** Retry budget declared by the policy (0 when none). */
    std::uint64_t retryBudget;
    /** Hedge budget declared by the policy (0 when none). */
    std::uint64_t hedgeBudget;
};

/** Front tier fanning to three leaf replicas, one degraded 20x for
 *  the whole run, under the case's resilience policy. */
ConfigBundle
resilienceBundle(const ResilienceCase& tc)
{
    ConfigBundle bundle;
    bundle.options.seed = tc.seed;
    bundle.options.warmupSeconds = 0.1;
    bundle.options.durationSeconds = 0.8;
    bundle.machines = json::parse(
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,)"
        R"( "machines": [{"name": "front", "cores": 4, "irq_cores": 0},)"
        R"( {"name": "leaf0", "cores": 2, "irq_cores": 0},)"
        R"( {"name": "leaf1", "cores": 2, "irq_cores": 0},)"
        R"( {"name": "leaf2", "cores": 2, "irq_cores": 0}]})");
    {
        JsonValue front = JsonValue::makeObject();
        front.asObject()["service_name"] = "front";
        front.asObject()["execution_model"] = "simple";
        JsonArray stages;
        stages.push_back(
            models::processingStage(0, "proc", models::detUs(5.0)));
        front.asObject()["stages"] = JsonValue(std::move(stages));
        JsonArray paths;
        paths.push_back(models::pathJson(0, "serve", {0}));
        front.asObject()["paths"] = JsonValue(std::move(paths));
        bundle.services.push_back(std::move(front));
        JsonValue leaf = JsonValue::makeObject();
        leaf.asObject()["service_name"] = "leaf";
        leaf.asObject()["execution_model"] = "simple";
        JsonArray leafStages;
        leafStages.push_back(
            models::processingStage(0, "proc", models::expUs(100.0)));
        leaf.asObject()["stages"] = JsonValue(std::move(leafStages));
        JsonArray leafPaths;
        leafPaths.push_back(models::pathJson(0, "serve", {0}));
        leaf.asObject()["paths"] = JsonValue(std::move(leafPaths));
        bundle.services.push_back(std::move(leaf));
    }
    std::string graph =
        R"({"services": [{"service": "front", "connection_pools":)"
        R"( {"leaf": 64},)";
    if (tc.policy[0] != '\0')
        graph += R"( "policies": {"leaf": )" +
                 std::string(tc.policy) + "},";
    graph +=
        R"( "instances": [{"machine": "front", "threads": 4}]},)"
        R"( {"service": "leaf", "lb_policy": "round_robin",)"
        R"( "instances": [{"machine": "leaf0", "threads": 2},)"
        R"( {"machine": "leaf1", "threads": 2},)"
        R"( {"machine": "leaf2", "threads": 2}]}]})";
    bundle.graph = json::parse(graph);
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes":)"
        R"( [{"node_id": 0, "service": "front", "path": "serve",)"
        R"( "children": [1]},)"
        R"( {"node_id": 1, "service": "leaf", "path": "serve",)"
        R"( "children": [2]},)"
        R"( {"node_id": 2, "service": "front", "path": "serve",)"
        R"( "children": []}]}]})");
    bundle.client = json::parse(
        R"({"front_service": "front", "connections": 64,)"
        R"( "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": 600.0}, "request_bytes": {"type": "deterministic",)"
        R"( "value": 128.0}})");
    bundle.faults = json::parse(
        R"({"faults": [{"type": "slow", "instance": "leaf.0",)"
        R"( "start_s": 0.05, "end_s": 10.0, "factor": 20.0}]})");
    return bundle;
}

class ResilienceAccountingTest
    : public ::testing::TestWithParam<ResilienceCase> {};

TEST_P(ResilienceAccountingTest, CountersStayWithinDeclaredBudgets)
{
    const ResilienceCase& tc = GetParam();
    auto simulation = Simulation::fromBundle(resilienceBundle(tc));
    const RunReport report = simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();
    const std::uint64_t started = dispatcher.requestsStarted();
    ASSERT_GT(started, 0u);

    // Mitigation never exceeds its declared budget: each request may
    // issue at most `retries` resends and `hedge_max` hedges.
    EXPECT_LE(dispatcher.retriesSent(), tc.retryBudget * started);
    EXPECT_LE(dispatcher.hedgesSent(), tc.hedgeBudget * started);
    if (tc.retryBudget == 0) {
        EXPECT_EQ(dispatcher.retriesSent(), 0u);
    }
    if (tc.hedgeBudget == 0) {
        EXPECT_EQ(dispatcher.hedgesSent(), 0u);
    }

    // Availability is a fraction of terminal outcomes.
    EXPECT_GE(report.availability, 0.0);
    EXPECT_LE(report.availability, 1.0);

    // Goodput never exceeds throughput: completions are a subset of
    // started requests, terminal outcomes never exceed admissions.
    EXPECT_LE(dispatcher.requestsCompleted(), started);
    EXPECT_LE(dispatcher.requestsCompleted() +
                  dispatcher.requestsFailed() +
                  dispatcher.requestsShed(),
              started);
    EXPECT_LE(report.completed, report.generated);

    // Conservation ledger: every admitted request is in exactly one
    // terminal (or still-active) bucket, and nothing leaks.
    EXPECT_EQ(started, dispatcher.requestsCompleted() +
                           dispatcher.requestsFailed() +
                           dispatcher.requestsShed() +
                           dispatcher.activeRequests());
    EXPECT_EQ(dispatcher.leakedHops(), 0u);
    EXPECT_EQ(dispatcher.leakedBlocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, ResilienceAccountingTest,
    ::testing::Values(
        ResilienceCase{"none_s3", 3, "", 0, 0},
        ResilienceCase{"none_s29", 29, "", 0, 0},
        ResilienceCase{"retry_s3", 3,
                       R"({"timeout_s": 0.002, "retries": 2,)"
                       R"( "backoff_base_s": 0.0002, "jitter": 0.2})",
                       2, 0},
        ResilienceCase{"retry_s11", 11,
                       R"({"timeout_s": 0.002, "retries": 2,)"
                       R"( "backoff_base_s": 0.0002, "jitter": 0.2})",
                       2, 0},
        ResilienceCase{"hedge_s11", 11,
                       R"({"timeout_s": 0.02, "retries": 1,)"
                       R"( "hedge_delay_s": 0.001, "hedge_max": 1})",
                       1, 1},
        ResilienceCase{"hedge_s29", 29,
                       R"({"timeout_s": 0.02, "retries": 1,)"
                       R"( "hedge_delay_s": 0.001, "hedge_max": 1})",
                       1, 1}),
    [](const ::testing::TestParamInfo<ResilienceCase>& info) {
        return info.param.name;
    });

TEST(ResilienceAccounting, ReportCountersMatchDispatcherLedger)
{
    // The externally visible report is a faithful view of the
    // dispatcher ledger, whatever the policy did during the run.
    ResilienceCase tc{"retry", 11,
                      R"({"timeout_s": 0.002, "retries": 2,)"
                      R"( "backoff_base_s": 0.0002})",
                      2, 0};
    auto simulation = Simulation::fromBundle(resilienceBundle(tc));
    const RunReport report = simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();
    EXPECT_EQ(report.retries, dispatcher.retriesSent());
    EXPECT_EQ(report.hedges, dispatcher.hedgesSent());
    EXPECT_EQ(report.failed, dispatcher.requestsFailed());
    EXPECT_EQ(report.shed, dispatcher.requestsShed());
    EXPECT_EQ(report.breakerTrips, dispatcher.breakerTrips());
}

// --------------------------------------------------- multiple clients

TEST(MultiClient, ArrayClientJsonCreatesSeveralGenerators)
{
    models::ThriftEchoParams params;
    params.run.qps = 4000.0;
    params.run.warmupSeconds = 0.2;
    params.run.durationSeconds = 1.0;
    ConfigBundle bundle = models::thriftEchoBundle(params);
    // Split the load across two client objects.
    json::JsonValue second = bundle.client;
    bundle.client.asObject()["load"].asObject()["qps"] = 2500.0;
    second.asObject()["load"].asObject()["qps"] = 1500.0;
    json::JsonArray clients;
    clients.push_back(bundle.client);
    clients.push_back(second);
    bundle.client = json::JsonValue(std::move(clients));
    auto simulation = Simulation::fromBundle(bundle);
    const RunReport report = simulation->run();
    EXPECT_EQ(simulation->clients().size(), 2u);
    EXPECT_NEAR(report.achievedQps, 4000.0, 400.0);
    EXPECT_NEAR(report.offeredQps, 4000.0, 1e-9);
}

}  // namespace
}  // namespace uqsim
