/**
 * @file
 * Storage-model benchmark: the perf trajectory for shared-bandwidth
 * disk simulation, gated against BENCH_storage.json.
 *
 *  - disk_churn       raw hw::Disk stress: repeating waves of 8
 *                     concurrent readers and 4 concurrent writers on
 *                     one disk, every start and finish triggering an
 *                     incremental re-share.  Also asserts each
 *                     wave's per-op finish time matches the
 *                     equal-split closed form within 5%.
 *  - replay_stampede  the cache-stampede case study (cache tier in
 *                     front of a disk-backed store at 35% hit rate),
 *                     end to end through client, network, cache, and
 *                     the contended store disk.
 *
 * engine_bench.h times the sections and prints each one's trace
 * digest, so disk-model changes can be checked for bit-exact
 * determinism.
 */

#include <cmath>
#include <cstdlib>
#include <memory>

#include "engine_bench.h"
#include "uqsim/hw/disk.h"
#include "uqsim/models/applications.h"

namespace {

using namespace uqsim;

/**
 * Raw disk churn: 100,000 waves of 8 reads and 4 writes submitted
 * simultaneously against one disk.  Every op start/finish re-shares
 * its direction's bandwidth, so this isolates the disk hot path from
 * the rest of the stack.  Verifies the equal-split closed form as it
 * runs: with all ops of a direction equal-sized and simultaneous,
 * each wave's direction drains in ops * bytes / capacity.
 */
bench::SectionRun
diskChurn()
{
    constexpr int kWaves = 100000;
    constexpr int kReaders = 8;
    constexpr int kWriters = 4;
    constexpr double kReadBps = 2e8;
    constexpr double kWriteBps = 1e8;
    constexpr std::uint64_t kBytes = 262144;

    Simulator sim(2025);
    hw::Disk::Config config;
    config.name = "bench";
    config.readBytesPerSecond = kReadBps;
    config.writeBytesPerSecond = kWriteBps;
    hw::Disk disk(sim, "host", config);

    const double read_expect = kReaders * kBytes / kReadBps;
    const double write_expect = kWriters * kBytes / kWriteBps;
    int bad_ops = 0;
    std::function<void(int)> startWave;
    startWave = [&](int wave) {
        if (wave >= kWaves)
            return;
        auto pending = std::make_shared<int>(kReaders + kWriters);
        const SimTime began = sim.now();
        auto submit = [&](hw::Disk::OpKind kind, double expected) {
            disk.submit(kind, kBytes, 0.0,
                        [&, pending, began, wave, expected]() {
                            const double elapsed =
                                simTimeToSeconds(sim.now() - began);
                            if (std::fabs(elapsed - expected) >
                                expected * 0.05)
                                ++bad_ops;
                            if (--*pending == 0)
                                startWave(wave + 1);
                        },
                        "bench/op");
        };
        for (int i = 0; i < kReaders; ++i)
            submit(hw::Disk::OpKind::Read, read_expect);
        for (int i = 0; i < kWriters; ++i)
            submit(hw::Disk::OpKind::Write, write_expect);
    };
    sim.scheduleAt(0, [&]() { startWave(0); }, "bench/wave");
    const bench::SectionRun run =
        bench::timeRun(sim, [&] { sim.run(); });
    if (bad_ops != 0) {
        std::fprintf(stderr,
                     "FATAL: %d ops outside 5%% of the equal-split "
                     "closed form\n",
                     bad_ops);
        std::exit(1);
    }
    return run;
}

ConfigBundle
stampedeBundle()
{
    models::CacheStampedeParams params;
    params.run.qps = 3000.0;
    params.run.seed = 811;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 256;
    params.hitRate = 0.35;
    return models::cacheStampedeBundle(params);
}

}  // namespace

int
main(int argc, char** argv)
{
    return bench::runSections(
        argc, argv,
        {{"disk_churn", diskChurn},
         {"replay_stampede",
          [] { return bench::replay(stampedeBundle()); }}});
}
