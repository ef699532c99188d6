/**
 * @file
 * Network-model tests: the fluid solver's max-min fair shares against
 * closed forms and, over random churn, against a full-scan filling
 * bit for bit; FlowModel timing against analytical incast shares,
 * the route freeze once transfers flow, the rate-unchanged reschedule
 * skip, fat-tree generator invariants, machines.json schema v2
 * validation, the capacity-doubling metamorphic property, and
 * FlowModel digest determinism across runner thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/hw/fluid_solver.h"
#include "uqsim/hw/topology.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"
#include "uqsim/random/rng.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace {

using hw::Cluster;
using hw::FatTreeConfig;
using hw::FlowModel;
using hw::MachineConfig;
using hw::Topology;
using hw::TopologyBuilder;

// ----------------------------------------------- max-min fair shares

/** Rates from one FluidSolver re-share (the solver FlowModel and
 *  hw::Disk run): one resource per capacity, one flow per path. */
std::vector<double>
fluidShares(const std::vector<double>& capacities,
            const std::vector<std::vector<int>>& paths)
{
    Simulator sim(1);
    hw::FluidSolver solver("test/flow", {});
    solver.bind(sim);
    for (const double capacity : capacities)
        solver.addResource(capacity);
    for (const std::vector<int>& path : paths) {
        hw::FluidSolver::Flow flow;
        flow.resources = &path;
        flow.sizeBytes = 1;
        flow.label = "test/done";
        solver.insert(std::move(flow));
    }
    solver.reshare();
    std::vector<double> rates;
    for (const auto& [id, flow] : solver.flows())
        rates.push_back(flow.rate);
    return rates;
}

TEST(MaxMinFairShares, SingleLinkSplitsEvenly)
{
    const auto rates = fluidShares({10.0}, {{0}, {0}});
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMinFairShares, ClassicTwoLinkClosedForm)
{
    // Textbook case: link 0 (cap 10) carries {A, B}; link 1 (cap 20)
    // carries {B, C}.  Max-min: A = B = 5, C = 20 - 5 = 15.
    const auto rates = fluidShares({10.0, 20.0}, {{0}, {0, 1}, {1}});
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);
    EXPECT_DOUBLE_EQ(rates[2], 15.0);
}

TEST(MaxMinFairShares, ChainProgressiveFilling)
{
    // f0 crosses every link; the cap-1 link pins it to 1, after
    // which f1 gets the rest of link 1 and f2 the rest of link 2.
    const auto rates = fluidShares({1.0, 2.0, 4.0}, {{0, 1, 2}, {1}, {2}});
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[0], 1.0);
    EXPECT_DOUBLE_EQ(rates[1], 1.0);
    EXPECT_DOUBLE_EQ(rates[2], 3.0);
}

TEST(MaxMinFairShares, EmptyPathConsumesNothing)
{
    const auto rates = fluidShares({8.0}, {{}, {0}});
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 0.0);
    EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

/** Progressive filling written out over *every* resource in index
 *  order, flows in the given (id) order: the reference the solver,
 *  which fills over its loaded resources only, must match bit for
 *  bit. */
std::vector<double>
referenceFilling(const std::vector<double>& capacities,
                 const std::vector<const std::vector<int>*>& paths)
{
    std::vector<double> capLeft = capacities;
    std::vector<int> flowsOn(capacities.size(), 0);
    for (const std::vector<int>* path : paths) {
        for (const int r : *path)
            ++flowsOn[static_cast<std::size_t>(r)];
    }
    std::vector<double> rates(paths.size(), 0.0);
    std::vector<bool> fixed(paths.size(), false);
    while (true) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t tightest = capacities.size();
        for (std::size_t r = 0; r < capacities.size(); ++r) {
            if (flowsOn[r] > 0 && capLeft[r] / flowsOn[r] < best) {
                best = capLeft[r] / flowsOn[r];
                tightest = r;
            }
        }
        if (tightest == capacities.size())
            return rates;
        for (std::size_t f = 0; f < paths.size(); ++f) {
            const std::vector<int>& path = *paths[f];
            if (fixed[f] ||
                std::find(path.begin(), path.end(),
                          static_cast<int>(tightest)) == path.end())
                continue;
            fixed[f] = true;
            rates[f] = best;
            for (const int r : path) {
                const auto ri = static_cast<std::size_t>(r);
                capLeft[ri] = std::max(capLeft[ri] - best, 0.0);
                --flowsOn[ri];
            }
        }
    }
}

TEST(FluidSolver, RatesMatchFullFillingBitForBit)
{
    // Random inserts, erases, capacity changes and completions over
    // 24 resources whose capacities are drawn from a few values (so
    // equal-split ties are common) including 0 (stalled flows).
    // After every step, and so after every re-share, each rate must
    // equal the full-scan reference exactly.
    constexpr std::size_t kResources = 24;
    const double kCapacities[] = {0.0, 1e6, 1e6, 1e6, 2e6, 2e6, 5e5};
    random::Rng rng(424242);
    Simulator sim(1);
    std::uint64_t finished = 0;
    hw::FluidSolver solver(
        "test/flow", [&](const hw::FluidSolver::Flow&) { ++finished; });
    solver.bind(sim);
    std::vector<double> capacities;
    for (std::size_t r = 0; r < kResources; ++r) {
        capacities.push_back(kCapacities[rng.nextBounded(7)]);
        solver.addResource(capacities.back());
    }
    // Paths outlive their flows, as the adapters' route storage does.
    std::vector<std::unique_ptr<std::vector<int>>> paths;
    std::vector<bool> wasLoaded(kResources, false);
    std::vector<bool> wentIdle(kResources, false);
    int reloaded = 0;
    int stalledChecks = 0;

    const auto check = [&](int step) {
        std::vector<const std::vector<int>*> active;
        std::vector<bool> loaded(kResources, false);
        for (const auto& [id, flow] : solver.flows()) {
            active.push_back(flow.resources);
            for (const int r : *flow.resources)
                loaded[static_cast<std::size_t>(r)] = true;
        }
        const std::vector<double> expected =
            referenceFilling(capacities, active);
        std::size_t i = 0;
        for (const auto& [id, flow] : solver.flows()) {
            EXPECT_EQ(flow.rate, expected[i])
                << "step " << step << ", flow " << id;
            // A flow with a rate has a completion; a stalled one
            // waits for the next re-share without one.
            if (flow.rate > 0.0) {
                EXPECT_TRUE(flow.completion.pending()) << "step " << step;
            } else if (flow.remainingBytes > 0.0) {
                EXPECT_FALSE(flow.completion.pending()) << "step " << step;
                ++stalledChecks;
            }
            ++i;
        }
        for (std::size_t r = 0; r < kResources; ++r) {
            if (wasLoaded[r] && !loaded[r])
                wentIdle[r] = true;
            else if (wentIdle[r] && loaded[r] && !wasLoaded[r])
                ++reloaded;
            wasLoaded[r] = loaded[r];
        }
    };

    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 35 || solver.flows().empty()) {
            // Paths draw from a window that drifts over the steps, so
            // resources fall idle and later carry flows again.
            const std::size_t base =
                static_cast<std::size_t>(step / 200) % kResources;
            auto path = std::make_unique<std::vector<int>>();
            const std::uint64_t hops = 1 + rng.nextBounded(4);
            for (std::uint64_t h = 0; h < hops; ++h) {
                const int r = static_cast<int>(
                    (base + rng.nextBounded(10)) % kResources);
                if (std::find(path->begin(), path->end(), r) ==
                    path->end())
                    path->push_back(r);
            }
            hw::FluidSolver::Flow flow;
            flow.resources = path.get();
            flow.sizeBytes = 1 + rng.nextBounded(200000);
            flow.label = "test/done";
            flow.done = []() {};
            paths.push_back(std::move(path));
            solver.insert(std::move(flow));
            solver.reshare();
        } else if (kind < 45) {
            const auto& table = solver.flows();
            const std::uint64_t id =
                table[rng.nextBounded(table.size())].first;
            solver.erase(id);
            solver.reshare();
        } else if (kind < 60) {
            const std::size_t r = rng.nextBounded(kResources);
            capacities[r] = kCapacities[rng.nextBounded(7)];
            solver.setCapacity(static_cast<int>(r), capacities[r]);
            solver.reshare();
        } else {
            // Fire one event: a completion (which re-shares) or the
            // tail event that delivers a finished flow.
            sim.run(kSimTimeMax, sim.executedEvents() + 1);
        }
        check(step);
    }
    EXPECT_GT(reloaded, 10) << "resources never went idle and back";
    EXPECT_GT(stalledChecks, 0) << "no flow ever stalled";

    // With every capacity positive, everything left finishes.
    for (std::size_t r = 0; r < kResources; ++r) {
        if (capacities[r] == 0.0) {
            capacities[r] = 1e6;
            solver.setCapacity(static_cast<int>(r), capacities[r]);
        }
    }
    solver.reshare();
    check(-1);
    while (sim.run(kSimTimeMax, sim.executedEvents() + 1) ==
           StopReason::EventLimit)
        check(-1);
    EXPECT_TRUE(solver.flows().empty());
    EXPECT_GT(finished, 100u);
}

TEST(FluidSolver, EraseOfUnknownIdThrowsAndKeepsTheTable)
{
    Simulator sim(1);
    hw::FluidSolver solver("test/flow", {});
    solver.bind(sim);
    solver.addResource(1e6);
    const std::vector<int> path{0};
    for (const std::uint64_t bytes : {1000u, 4000u, 9000u}) {
        hw::FluidSolver::Flow flow;
        flow.resources = &path;
        flow.sizeBytes = bytes;
        flow.label = "test/done";
        flow.done = []() {};
        solver.insert(std::move(flow));
    }
    solver.reshare();
    // Run until flow 0 has finished and its tail event fired.
    while (solver.flows().front().first == 0)
        sim.run(kSimTimeMax, sim.executedEvents() + 1);
    sim.run(kSimTimeMax, sim.executedEvents() + 1);
    ASSERT_EQ(solver.flows().size(), 2u);

    const auto snapshotOf = [&solver]() {
        std::vector<std::tuple<std::uint64_t, double, double, bool>> rows;
        for (const auto& [id, flow] : solver.flows()) {
            rows.emplace_back(id, flow.remainingBytes, flow.rate,
                              flow.completion.pending());
        }
        return rows;
    };
    const auto before = snapshotOf();
    const SimTime lastUpdate = solver.lastUpdate();
    const std::uint64_t reshares = solver.reshareCount();
    sim.scheduleAt(sim.now() + 100, []() {}, "test/later");
    sim.run(kSimTimeMax, sim.executedEvents() + 1);
    for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{3},
                                   std::uint64_t{77}}) {
        EXPECT_THROW(solver.erase(id), std::out_of_range) << id;
        EXPECT_EQ(snapshotOf(), before) << id;
        EXPECT_EQ(solver.lastUpdate(), lastUpdate) << id;
        EXPECT_EQ(solver.reshareCount(), reshares) << id;
        EXPECT_EQ(solver.nextId(), 3u) << id;
    }
    // Known ids still erase, from the middle of the table too.
    EXPECT_EQ(solver.erase(1).sizeBytes, 4000u);
    ASSERT_EQ(solver.flows().size(), 1u);
    EXPECT_EQ(solver.flows().front().first, 2u);
}

// --------------------------------------------------- FlowModel timing

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

TEST(FlowModel, SingleFlowPaysTransmissionPlusLatency)
{
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int link = flow_model->addLink({"ab", 1e6, 10e-6});
    flow_model->setRoute(0, 1, {link});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));

    SimTime done_at = -1;
    cluster.network().transfer(&a, &b, 500000,
                               [&]() { done_at = sim.now(); });
    sim.run();
    // 500 kB over 1 MB/s = 0.5 s transmission + 10 us propagation.
    EXPECT_EQ(done_at, secondsToSimTime(0.5) + secondsToSimTime(10e-6));
    EXPECT_EQ(flow_model->flowsStarted(), 1u);
    EXPECT_EQ(flow_model->flowsFinished(), 1u);
    EXPECT_EQ(flow_model->activeFlowCount(), 0u);
}

TEST(FlowModel, ZeroBytesSkipBandwidthSharing)
{
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int link = flow_model->addLink({"ab", 1e6, 10e-6});
    flow_model->setRoute(0, 1, {link});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));

    SimTime done_at = -1;
    cluster.network().transfer(&a, &b, 0,
                               [&]() { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, secondsToSimTime(10e-6));
    EXPECT_EQ(flow_model->flowsStarted(), 0u);
}

TEST(FlowModel, MissingRouteThrows)
{
    Simulator sim(1);
    Cluster cluster(sim, FlowModel::make());
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));
    EXPECT_THROW(cluster.network().transfer(&a, &b, 100, []() {}),
                 std::logic_error);
}

// In-flight flows and sticky failover picks point into the route
// candidates, so once a transfer has been carried a route change
// would swap a flow's links under it (erase() would then release
// the wrong links) or reallocate the candidates under the pointers.

TEST(FlowModel, SetRouteThrowsOnceATransferWasCarried)
{
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int ab = flow_model->addLink({"ab", 1e6, 0.0});
    const int alt = flow_model->addLink({"alt", 1e6, 0.0});
    flow_model->setRoute(0, 1, {alt});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));
    // Bound but not yet carrying: routes may still change.
    flow_model->setRoute(0, 1, {ab});

    cluster.network().transfer(&a, &b, 500000, []() {});
    ASSERT_EQ(flow_model->activeFlowCount(), 1u);
    EXPECT_THROW(flow_model->setRoute(0, 1, {alt}), std::logic_error);
    EXPECT_THROW(flow_model->setRoute(1, 0, {alt}), std::logic_error);
    EXPECT_EQ(flow_model->route(0, 1), std::vector<int>{ab});
    EXPECT_FALSE(flow_model->hasRoute(1, 0));
    sim.run();
    EXPECT_EQ(flow_model->flowsFinished(), 1u);
    EXPECT_EQ(flow_model->activeFlowCount(), 0u);
}

TEST(FlowModel, AddBackupRouteThrowsOnceATransferWasCarried)
{
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int ab = flow_model->addLink({"ab", 1e6, 0.0});
    const int alt = flow_model->addLink({"alt", 1e6, 0.0});
    flow_model->setRoute(0, 1, {ab});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));
    flow_model->addBackupRoute(0, 1, {alt});

    cluster.network().transfer(&a, &b, 500000, []() {});
    EXPECT_THROW(flow_model->addBackupRoute(0, 1, {alt}),
                 std::logic_error);
    EXPECT_EQ(flow_model->routeCandidates(0, 1).size(), 2u);
    sim.run();
    EXPECT_EQ(flow_model->flowsFinished(), 1u);
}

TEST(FlowModel, RejectsZeroCapacityAndDuplicateLinks)
{
    FlowModel model;
    EXPECT_THROW(model.addLink({"bad", 0.0, 0.0}),
                 std::invalid_argument);
    model.addLink({"ok", 1.0, 0.0});
    EXPECT_THROW(model.addLink({"ok", 1.0, 0.0}),
                 std::invalid_argument);
    EXPECT_EQ(model.linkId("ok"), 0);
    EXPECT_EQ(model.linkId("absent"), -1);
}

/** N equal senders into one oversubscribed down-link: per-flow
 *  throughput must match the analytical max-min share cap/N. */
TEST(FlowModel, IncastThroughputMatchesAnalyticalShare)
{
    constexpr int kSenders = 8;
    constexpr double kDownCap = 1.25e8;    // 1 Gb/s receiver NIC
    constexpr double kUpCap = 1.25e9;      // 10 Gb/s sender NICs
    constexpr double kLatency = 1e-6;      // per link
    constexpr std::uint32_t kBytes = 1000000;

    Simulator sim(7);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int down = flow_model->addLink({"down", kDownCap, kLatency});
    for (int i = 0; i < kSenders; ++i) {
        const int up = flow_model->addLink(
            {"up" + std::to_string(i), kUpCap, kLatency});
        flow_model->setRoute(1 + i, 0, {up, down});
    }
    Cluster cluster(sim, std::move(model));
    hw::Machine& receiver = cluster.addMachine(bareMachine("recv"));
    std::vector<hw::Machine*> senders;
    for (int i = 0; i < kSenders; ++i) {
        senders.push_back(&cluster.addMachine(
            bareMachine("send" + std::to_string(i))));
    }

    std::vector<SimTime> done_at(kSenders, -1);
    for (int i = 0; i < kSenders; ++i) {
        sim.scheduleAt(0,
                       [&, i]() {
                           cluster.network().transfer(
                               senders[i], &receiver, kBytes,
                               [&, i]() { done_at[i] = sim.now(); });
                       },
                       "incast/start");
    }
    sim.run();

    const double share = kDownCap / kSenders;
    for (int i = 0; i < kSenders; ++i) {
        ASSERT_GE(done_at[i], 0) << "flow " << i << " never finished";
        const double elapsed =
            simTimeToSeconds(done_at[i]) - 2 * kLatency;
        const double throughput = kBytes / elapsed;
        EXPECT_NEAR(throughput, share, share * 0.05)
            << "flow " << i << " off the analytical max-min share";
    }
    EXPECT_EQ(flow_model->flowsFinished(),
              static_cast<std::uint64_t>(kSenders));
}

/** A slow sender uplink is the bottleneck for that flow only; the
 *  others re-share the receiver link when it frees up. */
TEST(FlowModel, SlowUplinkBoundsOnlyItsOwnFlow)
{
    constexpr double kDownCap = 1.2e8;
    constexpr double kSlowCap = 5e6;
    constexpr std::uint32_t kBytes = 1000000;

    Simulator sim(7);
    auto model = FlowModel::make();
    const int down = model->addLink({"down", kDownCap, 0.0});
    const int slow = model->addLink({"up0", kSlowCap, 0.0});
    model->setRoute(1, 0, {slow, down});
    for (int i = 1; i < 8; ++i) {
        const int up = model->addLink(
            {"up" + std::to_string(i), 1.25e9, 0.0});
        model->setRoute(1 + i, 0, {up, down});
    }
    Cluster cluster(sim, std::move(model));
    hw::Machine& receiver = cluster.addMachine(bareMachine("recv"));
    std::vector<hw::Machine*> senders;
    for (int i = 0; i < 8; ++i) {
        senders.push_back(&cluster.addMachine(
            bareMachine("send" + std::to_string(i))));
    }
    std::vector<SimTime> done_at(8, -1);
    for (int i = 0; i < 8; ++i) {
        sim.scheduleAt(0,
                       [&, i]() {
                           cluster.network().transfer(
                               senders[i], &receiver, kBytes,
                               [&, i]() { done_at[i] = sim.now(); });
                       },
                       "incast/start");
    }
    sim.run();
    // Flow 0 is pinned to its 5 MB/s uplink throughout: 0.2 s.
    EXPECT_NEAR(simTimeToSeconds(done_at[0]), kBytes / kSlowCap,
                1e-6);
    // The other seven share what the slow flow leaves of the
    // receiver link: (120 - 5) MB/s / 7 each.
    const double fast_share = (kDownCap - kSlowCap) / 7;
    for (int i = 1; i < 8; ++i) {
        EXPECT_NEAR(simTimeToSeconds(done_at[i]), kBytes / fast_share,
                    kBytes / fast_share * 0.05);
    }
}

/** A flow on disjoint links starts and finishes without touching the
 *  in-flight flows' completion events: their rates never change, so
 *  the solver skips their reschedule.  Routes cross two links each,
 *  so the rates come from the progressive-filling rounds. */
TEST(FlowModel, DisjointFlowNeverReschedulesOthers)
{
    constexpr std::uint32_t kBytes = 1000000;
    const auto run = [&](bool with_disjoint, std::uint64_t* scheduled,
                         std::uint64_t* reshares) {
        Simulator sim(1);
        auto model = FlowModel::make();
        FlowModel* flow_model = model.get();
        const int a_up = flow_model->addLink({"a-up", 1e7, 0.0});
        const int b_down = flow_model->addLink({"b-down", 1e7, 0.0});
        const int c_up = flow_model->addLink({"c-up", 1e8, 0.0});
        const int d_down = flow_model->addLink({"d-down", 1e8, 0.0});
        flow_model->setRoute(0, 1, {a_up, b_down});
        flow_model->setRoute(2, 3, {c_up, d_down});
        Cluster cluster(sim, std::move(model));
        hw::Machine& a = cluster.addMachine(bareMachine("a"));
        hw::Machine& b = cluster.addMachine(bareMachine("b"));
        hw::Machine& c = cluster.addMachine(bareMachine("c"));
        hw::Machine& d = cluster.addMachine(bareMachine("d"));
        std::vector<SimTime> done_at;
        sim.scheduleAt(
            0,
            [&]() {
                for (int i = 0; i < 2; ++i) {
                    cluster.network().transfer(
                        &a, &b, kBytes,
                        [&]() { done_at.push_back(sim.now()); });
                }
            },
            "test/ab");
        if (with_disjoint) {
            sim.scheduleAt(
                secondsToSimTime(0.05),
                [&]() {
                    const std::uint64_t scheduled_before =
                        sim.queue().scheduledCount();
                    const std::uint64_t reshares_before =
                        flow_model->reshareCount();
                    cluster.network().transfer(
                        &c, &d, kBytes,
                        [&, scheduled_before, reshares_before]() {
                            *scheduled = sim.queue().scheduledCount() -
                                         scheduled_before;
                            *reshares = flow_model->reshareCount() -
                                        reshares_before;
                        });
                },
                "test/cd");
        }
        sim.run();
        return done_at;
    };
    std::uint64_t scheduled = 0;
    std::uint64_t reshares = 0;
    const std::vector<SimTime> alone = run(false, nullptr, nullptr);
    const std::vector<SimTime> shared = run(true, &scheduled, &reshares);

    // Two 1 MB flows at 5 MB/s each: 0.2 s; the 0.01 s c->d flow
    // runs entirely inside that window.
    ASSERT_EQ(alone.size(), 2u);
    EXPECT_EQ(alone[0], secondsToSimTime(0.2));
    EXPECT_EQ(shared, alone);
    // Only the disjoint flow's completion and delivery events were
    // scheduled, and it re-shared once at its start and once at its
    // finish.
    EXPECT_EQ(scheduled, 2u);
    EXPECT_EQ(reshares, 2u);
}

// ------------------------------------------- topology generator

TEST(Topology, FourAryFatTreeCounts)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 4.0;
    const Topology topo = TopologyBuilder::fatTree(config);
    EXPECT_EQ(topo.hostsPerEdge, 8);
    EXPECT_EQ(topo.hostCount, 64);
    EXPECT_EQ(topo.edgeCount, 8);
    EXPECT_EQ(topo.aggCount, 8);
    EXPECT_EQ(topo.coreCount, 4);
    // Directional links: 2 per host NIC + k^3 fabric links.
    EXPECT_EQ(topo.links.size(),
              static_cast<std::size_t>(2 * 64 + 4 * 4 * 4));
    EXPECT_EQ(topo.hostNames.front(), "h0");
    EXPECT_EQ(topo.hostNames.back(), "h63");
}

TEST(Topology, KAryLinkCountFormula)
{
    for (int k : {2, 4, 6, 8}) {
        FatTreeConfig config;
        config.arity = k;
        config.oversubscription = 1.0;
        const Topology topo = TopologyBuilder::fatTree(config);
        const int half = k / 2;
        EXPECT_EQ(topo.hostCount, k * half * half);
        EXPECT_EQ(topo.links.size(),
                  static_cast<std::size_t>(2 * topo.hostCount +
                                           k * k * k))
            << "k=" << k;
    }
}

TEST(Topology, PathSymmetryAndHopCounts)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 2.0;
    const Topology topo = TopologyBuilder::fatTree(config);
    const int hosts_per_edge = topo.hostsPerEdge;
    const int hosts_per_pod = (config.arity / 2) * hosts_per_edge;
    for (int s = 0; s < topo.hostCount; ++s) {
        for (int d = 0; d < topo.hostCount; ++d) {
            if (s == d)
                continue;
            const auto& forward = topo.route(s, d);
            const auto& reverse = topo.route(d, s);
            // Symmetry: both directions climb the same number of
            // tiers, so hop counts (and total latency) match.
            EXPECT_EQ(forward.size(), reverse.size());
            std::size_t expected = 6;
            if (s / hosts_per_edge == d / hosts_per_edge)
                expected = 2;
            else if (s / hosts_per_pod == d / hosts_per_pod)
                expected = 4;
            ASSERT_EQ(forward.size(), expected)
                << "route " << s << " -> " << d;
            // Routes start on the source's up-link and end on the
            // destination's down-link.
            EXPECT_EQ(topo.links[forward.front()].name,
                      topo.hostNames[s] + ":up");
            EXPECT_EQ(topo.links[forward.back()].name,
                      topo.hostNames[d] + ":down");
        }
    }
}

TEST(Topology, RejectsBadParameters)
{
    FatTreeConfig odd;
    odd.arity = 3;
    EXPECT_THROW(TopologyBuilder::fatTree(odd),
                 std::invalid_argument);
    FatTreeConfig ratio;
    ratio.oversubscription = 0.0;
    EXPECT_THROW(TopologyBuilder::fatTree(ratio),
                 std::invalid_argument);
}

TEST(Topology, PopulateClusterAssignsNetIdsInHostOrder)
{
    FatTreeConfig config;
    config.arity = 2;
    const Topology topo = TopologyBuilder::fatTree(config);
    Simulator sim(1);
    Cluster cluster(sim, topo.makeModel());
    topo.populateCluster(cluster, bareMachine("proto"));
    ASSERT_EQ(cluster.machineCount(),
              static_cast<std::size_t>(topo.hostCount));
    for (int h = 0; h < topo.hostCount; ++h) {
        EXPECT_EQ(cluster.machines()[h]->name(), topo.hostNames[h]);
        EXPECT_EQ(cluster.machines()[h]->netId(), h);
    }
    EXPECT_THROW(topo.populateCluster(cluster, bareMachine("again")),
                 std::logic_error);
}

// -------------------------------- capacity-doubling metamorphic test

struct FlowCase {
    int from;
    int to;
    std::uint32_t bytes;
    double startSeconds;
};

std::vector<SimTime>
runTopologyFlows(double gbps_scale, std::vector<FlowCase> cases)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 2.0;
    config.hostGbps = 1.0 * gbps_scale;
    config.fabricGbps = 1.0 * gbps_scale;
    const Topology topo = TopologyBuilder::fatTree(config);
    Simulator sim(11);
    Cluster cluster(sim, topo.makeModel());
    topo.populateCluster(cluster, bareMachine("proto"));
    std::vector<SimTime> done(cases.size(), -1);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        sim.scheduleAt(secondsToSimTime(cases[i].startSeconds),
                       [&, i]() {
                           const FlowCase& c = cases[i];
                           cluster.network().transfer(
                               cluster.machines()[c.from],
                               cluster.machines()[c.to], c.bytes,
                               [&, i]() { done[i] = sim.now(); });
                       },
                       "meta/start");
    }
    sim.run();
    return done;
}

TEST(FlowModel, DoublingCapacitiesNeverSlowsAnyFlow)
{
    // A deterministic mixed workload: incast onto host 0 plus
    // cross-pod and same-edge background flows, staggered starts.
    std::vector<FlowCase> cases;
    for (int i = 0; i < 24; ++i) {
        FlowCase c;
        c.from = 1 + (i * 7) % 15;
        c.to = (i % 3 == 0) ? 0 : (i * 13 + 5) % 16;
        if (c.to == c.from)
            c.to = (c.to + 1) % 16;
        c.bytes = static_cast<std::uint32_t>(((i * 37) % 91 + 10)) *
                  4096u;
        c.startSeconds = (i % 7) * 1e-3;
        cases.push_back(c);
    }
    const std::vector<SimTime> base = runTopologyFlows(1.0, cases);
    const std::vector<SimTime> doubled = runTopologyFlows(2.0, cases);
    ASSERT_EQ(base.size(), doubled.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_GE(base[i], 0);
        ASSERT_GE(doubled[i], 0);
        // Monotonicity of max-min fair sharing in capacity: no flow
        // may complete later on the faster fabric (tick-rounding
        // slack only).
        EXPECT_LE(doubled[i], base[i] + kMicrosecond)
            << "flow " << i << " slowed down by doubled capacity";
    }
}

// ------------------------------------- machines.json v2 validation

std::unique_ptr<Cluster>
clusterFromText(Simulator& sim, const std::string& text)
{
    return Cluster::fromJson(sim, json::parse(text));
}

TEST(MachinesJsonV2, V1FileLoadsWithConstantModelAndInfoLog)
{
    Simulator sim(1);
    sim.logger().setLevel(LogLevel::Info);
    std::vector<std::string> lines;
    sim.logger().setHook(
        [&lines](const std::string& line) { lines.push_back(line); });
    auto cluster = clusterFromText(sim, R"({
        "wire_latency_us": 15,
        "loopback_latency_us": 3,
        "machines": [{"name": "m0", "cores": 4}]
    })");
    EXPECT_EQ(std::string(cluster->network().model().modelName()),
              "constant");
    bool announced = false;
    for (const std::string& line : lines) {
        if (line.find("constant network model assumed") !=
            std::string::npos)
            announced = true;
    }
    EXPECT_TRUE(announced)
        << "v1 fallback must be announced at Info level";
}

TEST(MachinesJsonV2, UnknownTopologyKeyGetsDidYouMean)
{
    Simulator sim(1);
    try {
        clusterFromText(sim, R"({
            "schema_version": 2,
            "network": {"model": "flow"},
            "topology": {"type": "fat_tree", "aritty": 4}
        })");
        FAIL() << "expected JsonError";
    } catch (const json::JsonError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("aritty"), std::string::npos);
        EXPECT_NE(what.find("arity"), std::string::npos)
            << "expected a did-you-mean suggestion, got: " << what;
    }
}

TEST(MachinesJsonV2, TopologyRequiresFlowModel)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "constant"},
        "topology": {"type": "fat_tree"}
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, TopologyConflictsWithExplicitSections)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow"},
        "topology": {"type": "fat_tree"},
        "machines": [{"name": "m0"}]
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, UnknownModelAndVersionAreRejected)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "quantum"}
    })"),
                 json::JsonError);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 3,
        "machines": []
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, GeneratedTopologyBuildsMachines)
{
    Simulator sim(1);
    auto cluster = clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow", "external_latency_us": 20},
        "topology": {
            "type": "fat_tree", "arity": 4, "oversubscription": 4.0,
            "host_gbps": 10, "fabric_gbps": 10, "link_latency_us": 1,
            "hosts": {"prefix": "h", "cores": 8, "irq_cores": 2}
        }
    })");
    EXPECT_EQ(cluster->machineCount(), 64u);
    EXPECT_TRUE(cluster->hasMachine("h0"));
    EXPECT_TRUE(cluster->hasMachine("h63"));
    EXPECT_EQ(cluster->machine("h0").totalCores(), 8);
    EXPECT_EQ(std::string(cluster->network().model().modelName()),
              "flow");
}

TEST(MachinesJsonV2, ExplicitLinksAndRoutesWork)
{
    Simulator sim(1);
    auto cluster = clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow"},
        "links": [{"name": "trunk", "gbps": 0.008, "latency_us": 10}],
        "routes": [{"from": "a", "to": "b", "links": ["trunk"],
                    "symmetric": true}],
        "machines": [{"name": "a", "cores": 2},
                     {"name": "b", "cores": 2}]
    })");
    // 0.008 Gb/s = 1e6 bytes/s; 500 kB takes 0.5 s + 10 us.
    SimTime done_at = -1;
    cluster->network().transfer(&cluster->machine("a"),
                                &cluster->machine("b"), 500000,
                                [&]() { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at,
              secondsToSimTime(0.5) + secondsToSimTime(10e-6));
    // The symmetric route serves the reverse direction too.
    SimTime back_at = -1;
    cluster->network().transfer(&cluster->machine("b"),
                                &cluster->machine("a"), 0,
                                [&]() { back_at = sim.now(); });
    sim.run();
    EXPECT_EQ(back_at, done_at + secondsToSimTime(10e-6));
}

TEST(MachinesJsonV2, FlowModelNeedsTopologyOrExplicitSections)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow"},
        "machines": [{"name": "a"}]
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, UnknownMachineKeyRejectedInV1)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "machines": [{"name": "m0", "coures": 4}]
    })"),
                 json::JsonError);
}

// ------------------------- end-to-end fat-tree fan-out + determinism

models::FanoutFatTreeParams
smallFatTreeParams(double qps, std::uint64_t seed)
{
    models::FanoutFatTreeParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.4;
    params.run.clientConnections = 64;
    params.fanout = 8;
    params.responseBytes = 16 * 1024;
    return params;
}

TEST(FanoutFatTree, RunsEndToEndOnGeneratedCluster)
{
    auto simulation = Simulation::fromBundle(
        models::fanoutFatTreeBundle(smallFatTreeParams(400.0, 3)));
    const RunReport report = simulation->run();
    EXPECT_GT(report.completed, 50u);
    EXPECT_GT(report.endToEnd.p99Ms, 0.0);
}

std::vector<runner::ReplicatedCurve>
runFlowGrid(int jobs)
{
    runner::RunnerOptions options;
    options.jobs = jobs;
    options.replications = 2;
    options.baseSeed = 17;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("fanout_fat_tree", {300.0, 600.0},
                          [](double qps, std::uint64_t seed) {
                              return Simulation::fromBundle(
                                  models::fanoutFatTreeBundle(
                                      smallFatTreeParams(qps, seed)));
                          });
    return sweep_runner.run();
}

TEST(FanoutFatTree, FlowModelDigestsIndependentOfThreadCount)
{
    const std::vector<runner::ReplicatedCurve> serial = runFlowGrid(1);
    for (int jobs : {2, 8}) {
        const std::vector<runner::ReplicatedCurve> other =
            runFlowGrid(jobs);
        ASSERT_EQ(serial.size(), other.size());
        for (std::size_t c = 0; c < serial.size(); ++c) {
            ASSERT_EQ(serial[c].points.size(),
                      other[c].points.size());
            for (std::size_t p = 0; p < serial[c].points.size();
                 ++p) {
                const auto& lhs = serial[c].points[p];
                const auto& rhs = other[c].points[p];
                ASSERT_EQ(lhs.replications.size(),
                          rhs.replications.size());
                for (std::size_t r = 0; r < lhs.replications.size();
                     ++r) {
                    EXPECT_EQ(lhs.replications[r].seed,
                              rhs.replications[r].seed);
                    EXPECT_EQ(lhs.replications[r].traceDigest,
                              rhs.replications[r].traceDigest)
                        << "jobs=" << jobs << " point=" << p
                        << " rep=" << r;
                    EXPECT_EQ(lhs.replications[r].report.completed,
                              rhs.replications[r].report.completed);
                }
            }
        }
    }
}

}  // namespace
}  // namespace uqsim
