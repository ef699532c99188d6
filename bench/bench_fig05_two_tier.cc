/**
 * @file
 * Reproduces Fig. 5: load-latency validation of the 2-tier
 * NGINX-memcached application across thread/process configurations
 * (nginx8/mc4, nginx8/mc2, nginx4/mc2, nginx4/mc1).
 *
 * Expected shape (paper §IV-A): all curves are flat until a sharp
 * saturation knee; the knee is set by NGINX workers (4 vs 8 roughly
 * doubles it) and is insensitive to the memcached thread count.
 */

#include "bench_util.h"
#include "uqsim/models/applications.h"

using namespace uqsim;

namespace {

SweepCurve
sweepConfig(int nginx_workers, int memcached_threads)
{
    // Appended piece by piece: GCC 12 at -O3 misreads "n" + ... as
    // an overlapping memcpy (-Wrestrict).
    std::string label = "n";
    label += std::to_string(nginx_workers);
    label += "mc";
    label += std::to_string(memcached_threads);
    // One shared load grid so the printed rows align across configs.
    return bench::parallelSweep(
        label, linspace(8000.0, 88000.0, 11),
        [&](double qps, std::uint64_t seed) {
            models::TwoTierParams params;
            params.run.qps = qps;
            params.run.seed = seed;
            params.run.warmupSeconds = 0.4;
            params.run.durationSeconds = 1.9;
            params.nginxWorkers = nginx_workers;
            params.memcachedThreads = memcached_threads;
            return Simulation::fromBundle(
                models::twoTierBundle(params));
        });
}

}  // namespace

int
main()
{
    bench::banner("Fig. 5",
                  "2-tier NGINX-memcached load-latency validation");
    const SweepCurve n8mc4 = sweepConfig(8, 4);
    const SweepCurve n8mc2 = sweepConfig(8, 2);
    const SweepCurve n4mc2 = sweepConfig(4, 2);
    const SweepCurve n4mc1 = sweepConfig(4, 1);
    bench::printCurves({n8mc4, n8mc2, n4mc2, n4mc1});

    bench::paperNote(
        "mean latencies within 0.17 ms and tails within 0.83 ms of the "
        "real system; memcached threads do not move the knee (NGINX is "
        "the bottleneck), doubling NGINX workers roughly doubles it.");
    const double ratio_threads =
        n8mc2.saturationQps() / n8mc4.saturationQps();
    const double ratio_workers =
        n8mc2.saturationQps() / n4mc2.saturationQps();
    std::printf("shape check: sat(n8mc2)/sat(n8mc4) = %.2f "
                "(expect ~1.0), sat(n8)/sat(n4) = %.2f (expect ~2.0)\n",
                ratio_threads, ratio_workers);
    return 0;
}
