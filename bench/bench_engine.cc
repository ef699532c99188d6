/**
 * @file
 * Engine throughput benchmark: the perf trajectory for the
 * discrete-event hot path, gated against BENCH_engine.json.
 *
 *  - churn            raw Simulator schedule/fire/cancel churn: a ring
 *                     of self-rescheduling events plus timeout events
 *                     that are almost always cancelled (the
 *                     cancellation-heavy pattern client timeouts
 *                     produce).
 *  - replay_fanout    the Fig. 14 tail-at-scale fan-out replay (100
 *                     leaf servers, 1% slow), end to end through
 *                     dispatcher, network, IRQ, and instances.
 *  - replay_two_tier  the Fig. 5 NGINX-memcached system at 20 kQPS.
 *
 * engine_bench.h times the sections and prints each one's trace
 * digest, so engine changes can be checked for bit-exact determinism
 * against a previous build.
 */

#include "engine_bench.h"
#include "uqsim/models/applications.h"

namespace {

using namespace uqsim;

/** Raw engine churn: self-rescheduling ring + mostly-cancelled
 *  timeouts, the two dominant event patterns in a simulation. */
bench::SectionRun
churn()
{
    constexpr int kRing = 256;
    constexpr SimTime kStep = 1000;
    constexpr std::uint64_t kEvents = 4000000;
    Simulator sim(99);
    EventHandle timeout;
    std::function<void()> tick;
    tick = [&sim, &timeout, &tick]() {
        // Arm a far-future timeout and immediately cancel the
        // previous one: the client-timeout pattern.
        timeout.cancel();
        timeout = sim.scheduleAfter(kStep * 1000, []() {}, "churn/timeout");
        sim.scheduleAfter(kStep, tick, "churn/tick");
    };
    for (int i = 0; i < kRing; ++i)
        sim.scheduleAt(static_cast<SimTime>(i), tick, "churn/seed");
    return bench::timeRun(sim, [&] { sim.run(kSimTimeMax, kEvents); });
}

ConfigBundle
fanoutBundle()
{
    models::TailAtScaleParams params;
    params.run.qps = 120.0;
    params.run.seed = 1714;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 64;
    params.clusterSize = 100;
    params.slowFraction = 0.01;
    return models::tailAtScaleBundle(params);
}

ConfigBundle
twoTierBundle()
{
    models::TwoTierParams params;
    params.run.qps = 20000.0;
    params.run.seed = 42;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    return models::twoTierBundle(params);
}

}  // namespace

int
main(int argc, char** argv)
{
    return bench::runSections(
        argc, argv,
        {{"churn", churn},
         {"replay_fanout", [] { return bench::replay(fanoutBundle()); }},
         {"replay_two_tier",
          [] { return bench::replay(twoTierBundle()); }}});
}
