/**
 * @file
 * Flow-model benchmark: the perf trajectory for bandwidth-sharing
 * network simulation, gated against BENCH_incast.json.
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
 * engine_bench.h times the sections and prints each one's trace
 * digest, so FlowModel changes can be checked for bit-exact
 * determinism.
 */

#include <cmath>
#include <cstdlib>
#include <memory>

#include "engine_bench.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/models/applications.h"

namespace {

using namespace uqsim;

/**
 * Raw flow churn: 50,000 incast waves of 8 simultaneous senders into
 * one receiver NIC.  Every flow start/finish re-shares the
 * allocation, so this isolates the FlowModel hot path from the rest
 * of the stack.  Verifies the max-min acceptance bound as it runs.
 */
bench::SectionRun
flowChurn()
{
    constexpr int kWaves = 50000;
    constexpr int kSenders = 8;
    constexpr double kDownCap = 1.25e8;  // 1 Gb/s receiver NIC
    constexpr double kUpCap = 1.25e9;    // 10 Gb/s sender NICs
    constexpr std::uint32_t kBytes = 250000;

    Simulator sim(2024);
    auto model = hw::FlowModel::make();
    hw::FlowModel* flow_model = model.get();
    const int down = flow_model->addLink({"down", kDownCap, 1e-6});
    for (int i = 0; i < kSenders; ++i) {
        const int up = flow_model->addLink(
            {"up" + std::to_string(i), kUpCap, 1e-6});
        flow_model->setRoute(1 + i, 0, {up, down});
    }
    hw::Cluster cluster(sim, std::move(model));
    hw::MachineConfig proto;
    proto.cores = 2;
    proto.irqCores = 0;
    proto.name = "recv";
    cluster.addMachine(proto);
    std::vector<hw::Machine*> senders;
    for (int i = 0; i < kSenders; ++i) {
        proto.name = "send" + std::to_string(i);
        senders.push_back(&cluster.addMachine(proto));
    }
    hw::Machine& receiver = cluster.machine("recv");

    const double share = kDownCap / kSenders;
    int bad_flows = 0;
    std::function<void(int)> startWave;
    startWave = [&](int wave) {
        if (wave >= kWaves)
            return;
        auto pending = std::make_shared<int>(kSenders);
        const SimTime began = sim.now();
        for (int i = 0; i < kSenders; ++i) {
            cluster.network().transfer(
                senders[i], &receiver, kBytes,
                [&, pending, began, wave]() {
                    const double elapsed =
                        simTimeToSeconds(sim.now() - began) - 2e-6;
                    const double throughput = kBytes / elapsed;
                    if (std::fabs(throughput - share) > share * 0.05)
                        ++bad_flows;
                    if (--*pending == 0)
                        startWave(wave + 1);
                });
        }
    };
    sim.scheduleAt(0, [&]() { startWave(0); }, "incast/wave");
    const bench::SectionRun run =
        bench::timeRun(sim, [&] { sim.run(); });
    if (bad_flows != 0) {
        std::fprintf(stderr,
                     "FATAL: %d flows outside 5%% of the analytical "
                     "max-min share\n",
                     bad_flows);
        std::exit(1);
    }
    return run;
}

ConfigBundle
incastBundle()
{
    models::FanoutFatTreeParams params;
    params.run.qps = 600.0;
    params.run.seed = 907;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 128;
    params.fanout = 16;
    params.responseBytes = 64 * 1024;
    return models::fanoutFatTreeBundle(params);
}

}  // namespace

int
main(int argc, char** argv)
{
    return bench::runSections(
        argc, argv,
        {{"flow_churn", flowChurn},
         {"replay_incast",
          [] { return bench::replay(incastBundle()); }}});
}
