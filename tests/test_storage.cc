/**
 * @file
 * Storage-tier tests: the shared-bandwidth disk model (hw::Disk),
 * the cache-tier/backing-store service models, the disk-channel
 * inheritance sentinel, the DVFS bypass for frequency-insensitive
 * stages, and the PercentileRecorder reset fixes.
 *
 * The closed forms come from the equal-split degeneration of max-min
 * fairness: every operation occupies exactly one direction head, so
 * each in-flight operation of a direction gets capacity / count.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/hw/disk.h"
#include "uqsim/hw/dvfs.h"
#include "uqsim/models/applications.h"
#include "uqsim/models/cache_tier.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/random/rng.h"
#include "uqsim/runner/sweep_runner.h"
#include "uqsim/snapshot/snapshot.h"
#include "uqsim/stats/percentile_recorder.h"

namespace uqsim {
namespace {

constexpr double kReadBps = 1e8;  // 100 MB/s test disk

hw::Disk::Config
diskConfig(double read_bps = kReadBps, double write_bps = 0.0,
           int queue_depth = 0)
{
    hw::Disk::Config config;
    config.name = "d0";
    config.readBytesPerSecond = read_bps;
    config.writeBytesPerSecond = write_bps;
    config.queueDepth = queue_depth;
    return config;
}

// ------------------------------------------- raw disk closed forms

TEST(Disk, TwoEqualReadersEachGetHalfTheBandwidth)
{
    Simulator sim(1);
    hw::Disk disk(sim, "m0", diskConfig());
    const std::uint64_t bytes = 50'000'000;  // 0.5 s alone
    double done_a = -1.0, done_b = -1.0;
    sim.scheduleAt(
        0,
        [&]() {
            disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                        [&]() { done_a = simTimeToSeconds(sim.now()); },
                        "op/a");
            disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                        [&]() { done_b = simTimeToSeconds(sim.now()); },
                        "op/b");
        },
        "submit");
    sim.run();

    // Each reader runs at kReadBps / 2 the whole time, so both
    // finish at 2 * bytes / capacity.
    const double expected = 2.0 * bytes / kReadBps;
    EXPECT_NEAR(done_a, expected, 1e-9);
    EXPECT_NEAR(done_b, expected, 1e-9);
    EXPECT_EQ(disk.readsCompleted(), 2u);
    EXPECT_EQ(disk.bytesRead(), 2 * bytes);
    EXPECT_EQ(disk.queuedOps(), 0u);
    EXPECT_NEAR(disk.busySeconds(sim.now()), expected, 1e-9);
    EXPECT_NEAR(disk.utilization(sim.now()), 1.0, 1e-9);
}

TEST(Disk, ReadAndWriteHeadsShareNothing)
{
    Simulator sim(1);
    hw::Disk disk(sim, "m0", diskConfig(kReadBps, kReadBps / 2.0));
    const std::uint64_t bytes = 10'000'000;
    double read_done = -1.0, write_done = -1.0;
    sim.scheduleAt(
        0,
        [&]() {
            disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                        [&]() { read_done = simTimeToSeconds(sim.now()); },
                        "op/r");
            disk.submit(hw::Disk::OpKind::Write, bytes, 0.0,
                        [&]() { write_done = simTimeToSeconds(sim.now()); },
                        "op/w");
        },
        "submit");
    sim.run();

    // Directions are independent resources: the concurrent write
    // does not slow the read, and vice versa.
    EXPECT_NEAR(read_done, bytes / kReadBps, 1e-9);
    EXPECT_NEAR(write_done, bytes / (kReadBps / 2.0), 1e-9);
    EXPECT_EQ(disk.readsCompleted(), 1u);
    EXPECT_EQ(disk.writesCompleted(), 1u);
    EXPECT_EQ(disk.bytesWritten(), bytes);
}

TEST(Disk, StaggeredArrivalResharesIncrementally)
{
    Simulator sim(1);
    hw::Disk disk(sim, "m0", diskConfig());
    const std::uint64_t bytes = 10'000'000;  // 0.1 s alone
    double done_a = -1.0, done_b = -1.0;
    sim.scheduleAt(
        0,
        [&]() {
            disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                        [&]() { done_a = simTimeToSeconds(sim.now()); },
                        "op/a");
        },
        "submit/a");
    // B arrives when A is half done (0.05 s): A's remaining half
    // then moves at half rate (finish 0.05 + 0.1), after which B's
    // remaining half runs at full rate (finish 0.15 + 0.05).
    sim.scheduleAt(
        secondsToSimTime(0.05),
        [&]() {
            disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                        [&]() { done_b = simTimeToSeconds(sim.now()); },
                        "op/b");
        },
        "submit/b");
    sim.run();

    EXPECT_NEAR(done_a, 0.15, 1e-9);
    EXPECT_NEAR(done_b, 0.20, 1e-9);
    EXPECT_NEAR(disk.busySeconds(sim.now()), 0.20, 1e-9);
}

TEST(Disk, BoundedQueueDepthAdmitsInFifoOrder)
{
    Simulator sim(1);
    hw::Disk disk(sim, "m0", diskConfig(kReadBps, 0.0, 1));
    const std::uint64_t bytes = 10'000'000;  // 0.1 s each
    std::vector<int> order;
    std::vector<double> finish;
    sim.scheduleAt(
        0,
        [&]() {
            for (int i = 0; i < 3; ++i) {
                disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                            [&, i]() {
                                order.push_back(i);
                                finish.push_back(
                                    simTimeToSeconds(sim.now()));
                            },
                            "op");
            }
        },
        "submit");
    sim.run();

    // Depth 1 serializes the disk: strict FIFO, one at a time.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_NEAR(finish[0], 0.1, 1e-9);
    EXPECT_NEAR(finish[1], 0.2, 1e-9);
    EXPECT_NEAR(finish[2], 0.3, 1e-9);
    EXPECT_EQ(disk.queuedOps(), 2u);
    EXPECT_EQ(disk.peakQueueDepth(), 2u);
}

TEST(Disk, AccessLatencyRidesAfterTheLastByte)
{
    Simulator sim(1);
    hw::Disk disk(sim, "m0", diskConfig());
    const std::uint64_t bytes = 10'000'000;
    double done = -1.0;
    sim.scheduleAt(
        0,
        [&]() {
            disk.submit(hw::Disk::OpKind::Read, bytes, 0.004,
                        [&]() { done = simTimeToSeconds(sim.now()); },
                        "op");
        },
        "submit");
    sim.run();

    EXPECT_NEAR(done, 0.1 + 0.004, 1e-9);
    // The tail is latency, not occupancy: busy time covers only the
    // transfer.
    EXPECT_NEAR(disk.busySeconds(sim.now()), 0.1, 1e-9);
}

/** A write starts and finishes while two reads are in flight: the
 *  read head's shares never change, so the solver keeps the reads'
 *  completion events instead of rescheduling them. */
TEST(Disk, WriteNeverReschedulesInFlightReads)
{
    const std::uint64_t bytes = 50'000'000;  // 1 s at half rate
    const auto run = [&](bool with_write, std::uint64_t* scheduled,
                         std::uint64_t* reshares) {
        Simulator sim(1);
        hw::Disk disk(sim, "m0", diskConfig());
        std::vector<SimTime> read_done;
        sim.scheduleAt(
            0,
            [&]() {
                for (int i = 0; i < 2; ++i) {
                    disk.submit(hw::Disk::OpKind::Read, bytes, 0.0,
                                [&]() { read_done.push_back(sim.now()); },
                                "op/read");
                }
            },
            "submit/reads");
        if (with_write) {
            sim.scheduleAt(
                secondsToSimTime(0.1),
                [&]() {
                    const std::uint64_t scheduled_before =
                        sim.queue().scheduledCount();
                    const std::uint64_t reshares_before =
                        disk.reshareCount();
                    disk.submit(
                        hw::Disk::OpKind::Write, 10'000'000, 0.004,
                        [&, scheduled_before, reshares_before]() {
                            *scheduled = sim.queue().scheduledCount() -
                                         scheduled_before;
                            *reshares =
                                disk.reshareCount() - reshares_before;
                        },
                        "op/write");
                },
                "submit/write");
        }
        sim.run();
        return read_done;
    };
    std::uint64_t scheduled = 0;
    std::uint64_t reshares = 0;
    const std::vector<SimTime> alone = run(false, nullptr, nullptr);
    const std::vector<SimTime> shared = run(true, &scheduled, &reshares);

    ASSERT_EQ(alone.size(), 2u);
    EXPECT_EQ(alone[0], secondsToSimTime(1.0));
    EXPECT_EQ(shared, alone);
    // Only the write's completion and its latency tail were
    // scheduled; one re-share at its start and one at its finish.
    EXPECT_EQ(scheduled, 2u);
    EXPECT_EQ(reshares, 2u);
}

/** The DISKS fold counts next_op_id in submissions and folds each
 *  queued operation under the id FIFO admission will give it, with
 *  every byte left, so a fold keeps one meaning whether ids are
 *  handed out on submission or on admission. */
TEST(Disk, SnapshotNamesQueuedOpsInSubmissionOrder)
{
    Simulator sim(1);
    hw::Disk disk(sim, "m0", diskConfig(kReadBps, 0.0, 1));
    const std::uint64_t bytes = 1000;
    for (int i = 0; i < 3; ++i)
        disk.submit(hw::Disk::OpKind::Read, bytes, 0.0, [] {}, "op/r");

    snapshot::Digest live;
    disk.foldState(live);

    snapshot::Digest expected;
    expected.str(disk.label());
    expected.u64(3);  // submitted
    for (int i = 0; i < 4; ++i)
        expected.u64(0);  // reads/writes completed, bytes read/written
    expected.u64(2);      // queued_ops
    expected.u64(2);      // peak_queued
    expected.u64(disk.reshareCount());
    expected.u64(3);    // next_op_id
    expected.i64(0);    // last_update
    expected.f64(0.0);  // busy_ticks
    expected.u64(1);    // in service
    expected.u64(2);    // waiting
    // Op 0 reads alone at full bandwidth; ops 1 and 2 wait unstarted.
    for (std::uint64_t id = 0; id < 3; ++id) {
        expected.u64(id);
        expected.u32(0);  // read head
        expected.u64(bytes);
        expected.f64(static_cast<double>(bytes));
        expected.f64(id == 0 ? kReadBps : 0.0);
        expected.f64(0.0);
        expected.str("op/r");
    }
    EXPECT_EQ(live.value(), expected.value());
}

TEST(Disk, RejectsNonPositiveReadBandwidth)
{
    Simulator sim(1);
    hw::Disk::Config config;
    config.readBytesPerSecond = 0.0;
    EXPECT_THROW(hw::Disk(sim, "m0", config), std::invalid_argument);
}

// -------------------------------- disk-channel inheritance sentinel

models::ThreeTierParams
quickThreeTier()
{
    models::ThreeTierParams params;
    params.run.qps = 500.0;
    params.run.warmupSeconds = 0.05;
    params.run.durationSeconds = 0.2;
    params.run.clientConnections = 32;
    return params;
}

json::JsonValue&
mongoInstanceJson(ConfigBundle& bundle)
{
    // threeTierBundle deploys nginx, memcached, mongodb in order.
    return bundle.graph.asObject()
        .at("services")
        .asArray()[2]
        .asObject()
        .at("instances")
        .asArray()[0];
}

TEST(DiskChannels, ExplicitZeroNoLongerInheritsTheModelDefault)
{
    // Regression: disk_channels: 0 used to silently fall back to the
    // service's default channel count.  It now means "no channels",
    // which a disk-using model must reject.
    ConfigBundle bundle = models::threeTierBundle(quickThreeTier());
    mongoInstanceJson(bundle).asObject()["disk_channels"] = 0;
    try {
        Simulation::fromBundle(bundle);
        FAIL() << "explicit disk_channels: 0 must not be inherited";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("has no disk channels"),
                  std::string::npos)
            << error.what();
    }
}

TEST(DiskChannels, AbsentKeyStillInheritsTheModelDefault)
{
    ConfigBundle bundle = models::threeTierBundle(quickThreeTier());
    mongoInstanceJson(bundle).asObject().erase("disk_channels");
    auto simulation = Simulation::fromBundle(bundle);
    const RunReport report = simulation->run();
    EXPECT_GT(report.completed, 0u);
}

// --------------------------------------- DVFS bypass for disk time

TEST(ServiceTime, FrequencyExponentZeroBypassesDvfs)
{
    // Disk stages are profiled frequency-insensitive (freq_exponent
    // 0); their samples must be bit-identical with and without a
    // DVFS domain, at any frequency, while consuming the same RNG
    // stream.
    const ServiceTimeModel model = ServiceTimeModel::fromJson(
        models::serviceTimeJson(models::expUs(100.0), 0.0, 0.0, 0.0));
    EXPECT_TRUE(model.frequencyInsensitive());

    hw::DvfsDomain slow(hw::DvfsTable::paperDefault());
    slow.setIndex(0);  // lowest frequency, maximum slowdown
    random::Rng with_dvfs(42);
    random::Rng without(42);
    EXPECT_EQ(model.sample(with_dvfs, 1, 0, &slow),
              model.sample(without, 1, 0, nullptr));
    EXPECT_EQ(with_dvfs.nextU64(), without.nextU64());

    // Sanity: an exponent-1 stage at the same frequency does scale.
    const ServiceTimeModel sensitive = ServiceTimeModel::fromJson(
        models::serviceTimeJson(models::expUs(100.0), 0.0, 0.0, 1.0));
    EXPECT_FALSE(sensitive.frequencyInsensitive());
    random::Rng a(42);
    random::Rng b(42);
    EXPECT_GT(sensitive.sample(a, 1, 0, &slow),
              sensitive.sample(b, 1, 0, nullptr));
}

// -------------------------------------- PercentileRecorder hygiene

TEST(PercentileRecorder, MergeResetAddComputesFreshPercentiles)
{
    stats::PercentileRecorder source;
    for (int i = 0; i < 1000; ++i)
        source.add(1000.0 + i);
    stats::PercentileRecorder recorder;
    recorder.merge(source);
    EXPECT_EQ(recorder.count(), 1000u);

    recorder.reset();
    EXPECT_TRUE(recorder.empty());
    // Regression: reset() used to clear() the buffers, pinning their
    // capacity at the pooled size for the rest of a sweep.
    EXPECT_EQ(recorder.values().capacity(), 0u);

    recorder.add(1.0);
    recorder.add(3.0);
    EXPECT_DOUBLE_EQ(recorder.p50(), 2.0);
    EXPECT_DOUBLE_EQ(recorder.mean(), 2.0);
    EXPECT_DOUBLE_EQ(recorder.max(), 3.0);
}

// ------------------------------------------- cache-tier closed form

TEST(CacheTier, EffectiveHitRateDiscountsByTtlSurvival)
{
    // No TTL (or no key population) leaves the profiled rate alone.
    EXPECT_DOUBLE_EQ(models::effectiveHitRate(0.9, 1000.0, 0.0, 10.0),
                     0.9);
    EXPECT_DOUBLE_EQ(models::effectiveHitRate(0.9, 1000.0, 1e4, 0.0),
                     0.9);
    // Longer TTLs keep more fills alive: monotone toward the
    // profiled rate.
    const double short_ttl =
        models::effectiveHitRate(0.9, 1000.0, 1e4, 1.0);
    const double long_ttl =
        models::effectiveHitRate(0.9, 1000.0, 1e4, 60.0);
    EXPECT_LT(short_ttl, long_ttl);
    EXPECT_LE(long_ttl, 0.9);
    EXPECT_GT(short_ttl, 0.0);
}

TEST(CacheTier, RejectsOutOfRangeHitProbability)
{
    models::CacheTierOptions options;
    options.hitProbability = 1.5;
    EXPECT_THROW(models::cacheTierServiceJson(options),
                 std::invalid_argument);
}

// ------------------------------------- cache-stampede end to end

models::CacheStampedeParams
quickStampede(double hit_rate, std::uint64_t seed = 11)
{
    models::CacheStampedeParams params;
    params.run.qps = 1500.0;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.5;
    params.run.clientConnections = 64;
    params.hitRate = hit_rate;
    return params;
}

TEST(CacheStampede, DiskCountersSurfaceInTheReport)
{
    auto simulation =
        Simulation::fromBundle(models::cacheStampedeBundle(
            quickStampede(0.5)));
    const RunReport report = simulation->run();

    ASSERT_GT(report.completed, 100u);
    ASSERT_EQ(report.disks.size(), 1u);
    const DiskStats& disk = report.disks.at("store_server/store_disk");
    EXPECT_GT(disk.reads, 0u);
    EXPECT_GT(disk.writes, 0u);
    EXPECT_GT(disk.bytesRead, disk.reads);  // 64 KiB per read
    EXPECT_GT(disk.busySeconds, 0.0);
    EXPECT_GT(disk.utilization, 0.0);
    EXPECT_LE(disk.utilization, 1.0);
    // The disk axis reaches the structured rendering too.
    EXPECT_NE(report.toJsonString().find("store_server/store_disk"),
              std::string::npos);
    EXPECT_NE(report.toString().find("store_server/store_disk"),
              std::string::npos);
}

TEST(CacheStampede, FallingHitRateSaturatesTheBackingStore)
{
    auto run = [](double hit_rate) {
        auto simulation = Simulation::fromBundle(
            models::cacheStampedeBundle(quickStampede(hit_rate)));
        return simulation->run();
    };
    const RunReport warm = run(0.95);
    const RunReport cold = run(0.0);

    const DiskStats& warm_disk =
        warm.disks.at("store_server/store_disk");
    const DiskStats& cold_disk =
        cold.disks.at("store_server/store_disk");
    EXPECT_GT(cold_disk.reads, 5 * warm_disk.reads);
    EXPECT_GT(cold_disk.utilization, warm_disk.utilization);
    EXPECT_GT(cold.tiers.at("store").p99Ms,
              warm.tiers.at("store").p99Ms);
}

TEST(CacheStampede, DigestsIdenticalAcrossRunnerJobCounts)
{
    // The shared disk reshapes in operation-id order, so the trace
    // digest must be a pure function of (config, seed) regardless of
    // how many runner threads execute the sweep — including points
    // with heavy contended I/O (hit rate 0.2).
    auto grid = [](int jobs) {
        runner::RunnerOptions options;
        options.jobs = jobs;
        options.replications = 2;
        options.baseSeed = 17;
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep(
            "stampede", {0.9, 0.2},
            [](double hit_rate, std::uint64_t seed) {
                return Simulation::fromBundle(
                    models::cacheStampedeBundle(
                        quickStampede(hit_rate, seed)));
            });
        return sweep_runner.run();
    };

    const auto serial = grid(1);
    for (int jobs : {2, 8}) {
        const auto parallel = grid(jobs);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t c = 0; c < serial.size(); ++c) {
            ASSERT_EQ(serial[c].points.size(),
                      parallel[c].points.size());
            for (std::size_t p = 0; p < serial[c].points.size(); ++p) {
                const auto& lhs = serial[c].points[p].replications;
                const auto& rhs = parallel[c].points[p].replications;
                ASSERT_EQ(lhs.size(), rhs.size());
                for (std::size_t r = 0; r < lhs.size(); ++r) {
                    EXPECT_EQ(lhs[r].traceDigest, rhs[r].traceDigest)
                        << "jobs=" << jobs << " point=" << p
                        << " rep=" << r;
                    EXPECT_GT(lhs[r].report.completed, 0u);
                }
            }
        }
    }
}

TEST(CacheStampede, ColdStartZeroProbabilityVariantIsLegal)
{
    // Regression: the path tree used to validate the probability sum
    // after *each* variant, so a document whose first variant has
    // probability 0 (hit rate 0 -> the read-hit leg) was rejected
    // even though the full document sums to 1.
    auto simulation = Simulation::fromBundle(
        models::cacheStampedeBundle(quickStampede(0.0)));
    const RunReport report = simulation->run();
    EXPECT_GT(report.completed, 0u);
    EXPECT_GT(report.disks.at("store_server/store_disk").utilization,
              0.0);
}

TEST(CacheStampede, MachinesJsonDiskSchemaIsValidated)
{
    ConfigBundle bundle =
        models::cacheStampedeBundle(quickStampede(0.5));
    json::JsonValue& store_machine = bundle.machines.asObject()
                                         .at("machines")
                                         .asArray()[1];
    json::JsonValue& disk =
        store_machine.asObject().at("disks").asArray()[0];
    disk.asObject().erase("read_mbps");
    disk.asObject()["read_mpbs"] = 200.0;  // typo on purpose
    try {
        Simulation::fromBundle(bundle);
        FAIL() << "misspelled disk key must be rejected";
    } catch (const std::exception& error) {
        EXPECT_NE(std::string(error.what()).find("read_mpbs"),
                  std::string::npos)
            << error.what();
    }
}

}  // namespace
}  // namespace uqsim
