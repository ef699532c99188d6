/**
 * @file
 * Tests for the checkpoint/restore subsystem: the
 * `uqsim-snapshot-v2` binary format (strict validation: truncation,
 * bit flips, version and size gating, layer-fold mismatches), the
 * segmented-run determinism contract (checkpoint placement is
 * invisible to the event stream), replay-validated restore under
 * faults / FlowModel routing / disk I/O, and warm-state forking.
 * A killed sweep resumes from its run journal, not from snapshots;
 * test_harness covers that.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/snapshot/checkpoint.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace {

namespace fs = std::filesystem;

using json::JsonArray;
using json::JsonValue;
using snapshot::Layer;
using snapshot::Snapshot;
using snapshot::SnapshotFormatError;
using snapshot::SnapshotStateError;

/** Unique-ish temp dir per test (ctest runs tests in parallel). */
std::string
tempDir(const std::string& stem)
{
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return "snapshot_" + std::string(info->name()) + "_" + stem;
}

struct DirJanitor {
    std::vector<std::string> paths;
    ~DirJanitor()
    {
        for (const std::string& path : paths) {
            std::error_code ignored;
            fs::remove_all(path, ignored);
        }
    }
    const std::string&
    track(const std::string& path)
    {
        paths.push_back(path);
        return paths.back();
    }
};

models::TwoTierParams
twoTierParams(double qps, std::uint64_t seed)
{
    models::TwoTierParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.2;
    params.run.durationSeconds = 0.8;
    return params;
}

std::unique_ptr<Simulation>
makeTwoTier(double qps, std::uint64_t seed)
{
    return Simulation::fromBundle(
        models::twoTierBundle(twoTierParams(qps, seed)));
}

/** Single-service bundle with a scripted crash *and* a network
 *  degradation window, for mid-fault-window checkpoints. */
ConfigBundle
faultyBundle(std::uint64_t seed)
{
    ConfigBundle bundle;
    bundle.options.seed = seed;
    bundle.options.warmupSeconds = 0.1;
    bundle.options.durationSeconds = 1.0;
    bundle.machines = json::parse(
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,)"
        R"( "machines": [{"name": "front", "cores": 4,)"
        R"( "irq_cores": 0}]})");
    JsonValue svc = JsonValue::makeObject();
    svc.asObject()["service_name"] = std::string("svc");
    svc.asObject()["execution_model"] = std::string("simple");
    JsonArray stages;
    stages.push_back(
        models::processingStage(0, "proc", models::expUs(1000.0)));
    svc.asObject()["stages"] = JsonValue(std::move(stages));
    JsonArray paths;
    paths.push_back(models::pathJson(0, "serve", {0}));
    svc.asObject()["paths"] = JsonValue(std::move(paths));
    bundle.services.push_back(std::move(svc));
    bundle.graph = json::parse(
        R"({"services": [{"service": "svc", "instances":)"
        R"( [{"machine": "front", "threads": 2}]}]})");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes": [{"node_id": 0,)"
        R"( "service": "svc", "path": "serve", "children": []}]}]})");
    bundle.client = json::parse(
        R"({"front_service": "svc", "connections": 64,)"
        R"( "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": 3000.0}, "request_bytes": {"type":)"
        R"( "deterministic", "value": 128.0}})");
    bundle.faults = json::parse(
        R"({"faults": [{"type": "crash", "instance": "svc.0",)"
        R"( "at_s": 0.4, "recover_s": 0.6},)"
        R"( {"type": "network", "start_s": 0.3, "end_s": 0.7,)"
        R"( "extra_latency_us": 200.0, "loss_prob": 0.02}]})");
    return bundle;
}

std::uint64_t
straightThroughDigest(const std::function<std::unique_ptr<Simulation>()>&
                          factory)
{
    auto simulation = factory();
    simulation->run();
    return simulation->sim().traceDigest();
}

/** A snapshot with distinct values in every field. */
Snapshot
sampleSnapshot()
{
    Snapshot sample;
    sample.meta.configDigest = 0x1111111111111111ULL;
    sample.meta.masterSeed = 7;
    sample.meta.simTime = 1234567;
    sample.meta.executedEvents = 89;
    sample.meta.traceDigest = 0x2222222222222222ULL;
    for (std::size_t i = 0; i < snapshot::kLayerCount; ++i)
        sample.folds[i] = 0xF0F0F0F000000000ULL + i;
    return sample;
}

/** Rewrites the whole-file CRC so only the deeper gates can reject
 *  an edited image. */
void
reseal(std::vector<std::uint8_t>& image)
{
    const std::size_t body = image.size() - 16;
    const std::uint64_t crc = snapshot::crc64(image.data(), body);
    for (int i = 0; i < 8; ++i)
        image[body + i] =
            static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
}

void
putLe(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

std::vector<std::uint8_t>
readBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string& path,
           const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Format: round trip and strict validation

TEST(SnapshotFormat, RoundTripsMetaScalarsAndStrings)
{
    const Snapshot sample = sampleSnapshot();
    const std::vector<std::uint8_t> image = snapshot::encode(sample);
    ASSERT_EQ(image.size(), snapshot::kSnapshotSize);
    const Snapshot decoded = snapshot::decode(image);

    EXPECT_EQ(decoded.meta.configDigest, 0x1111111111111111ULL);
    EXPECT_EQ(decoded.meta.masterSeed, 7u);
    EXPECT_EQ(decoded.meta.simTime, 1234567);
    EXPECT_EQ(decoded.meta.executedEvents, 89u);
    EXPECT_EQ(decoded.meta.traceDigest, 0x2222222222222222ULL);
    EXPECT_EQ(decoded.folds, sample.folds);
    EXPECT_STREQ(snapshot::layerName(Layer::Engine), "ENGINE");
    EXPECT_STREQ(snapshot::layerName(Layer::Stats), "STATS");
}

TEST(SnapshotFormat, FileRoundTripIsAtomicAndByteIdentical)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("d"));
    fs::create_directories(dir);
    const std::string path = dir + "/sample.uqsnap";

    const Snapshot sample = sampleSnapshot();
    snapshot::writeFile(path, sample);

    // The atomic rename must not leave the temporary behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(readBytes(path), snapshot::encode(sample));
    EXPECT_EQ(snapshot::readFile(path).folds, sample.folds);
}

TEST(SnapshotFormat, TruncationAtAnyPointIsRejected)
{
    const std::vector<std::uint8_t> image =
        snapshot::encode(sampleSnapshot());
    for (std::size_t size : {std::size_t(0), std::size_t(8),
                             image.size() / 2, image.size() - 1,
                             image.size() - 8}) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() + size);
        EXPECT_THROW(snapshot::decode(cut), SnapshotFormatError)
            << "size " << size;
    }
}

TEST(SnapshotFormat, EveryByteFlipIsRejected)
{
    const std::vector<std::uint8_t> image =
        snapshot::encode(sampleSnapshot());
    // The whole-file CRC (or, for footer bytes, the magic / CRC
    // fields themselves) must catch a flip anywhere in the file.
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<std::uint8_t> corrupt = image;
        corrupt[i] ^= 0x01;
        EXPECT_THROW(snapshot::decode(corrupt), SnapshotFormatError)
            << "byte " << i;
    }
}

TEST(SnapshotFormat, UnsupportedVersionIsRejected)
{
    std::vector<std::uint8_t> image =
        snapshot::encode(sampleSnapshot());
    // Bump the version field (LE u32 at offset 8) and re-seal the
    // whole-file CRC so the version gate itself is what trips.
    image[8] += 1;
    reseal(image);
    try {
        snapshot::decode(image);
        FAIL() << "version gate missing";
    } catch (const SnapshotFormatError& error) {
        EXPECT_NE(std::string(error.what()).find("version 3"),
                  std::string::npos)
            << error.what();
    }
}

TEST(SnapshotFormat, WrongSizeIsRejected)
{
    const std::vector<std::uint8_t> image =
        snapshot::encode(sampleSnapshot());
    const std::vector<std::uint8_t> footer(image.end() - 16,
                                           image.end());
    // Drop or add one fold's worth of bytes before the footer, then
    // re-seal, so only the exact-size gate can reject the file.
    for (const int delta : {-8, 8}) {
        std::vector<std::uint8_t> resized(
            image.begin(), image.end() - 16 + std::min(delta, 0));
        resized.resize(resized.size() + std::max(delta, 0), 0xAB);
        resized.insert(resized.end(), footer.begin(), footer.end());
        reseal(resized);
        try {
            snapshot::decode(resized);
            FAIL() << "size gate missing for delta " << delta;
        } catch (const SnapshotFormatError& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find(std::to_string(resized.size()) +
                                " bytes"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(SnapshotFormat, VersionOneFileNamesBothVersions)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("v1"));
    fs::create_directories(dir);
    // A well-formed uqsim-snapshot-v1 image: 56-byte header (version
    // 1, one section), one 32-byte table entry with a valid payload
    // CRC, the payload, and a valid whole-file footer.
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<std::uint8_t> image(snapshot::kMagic,
                                    snapshot::kMagic + 8);
    putLe(image, 1, 4);  // version
    putLe(image, 1, 4);  // section_count
    for (int i = 0; i < 5; ++i)
        putLe(image, 100 + i, 8);  // replay coordinates
    putLe(image, 1, 4);            // section id ENGINE
    putLe(image, 0, 4);            // flags
    putLe(image, 56 + 32, 8);      // offset
    putLe(image, payload.size(), 8);
    putLe(image, snapshot::crc64(payload.data(), payload.size()), 8);
    image.insert(image.end(), payload.begin(), payload.end());
    putLe(image, snapshot::crc64(image.data(), image.size()), 8);
    image.insert(image.end(), snapshot::kFooterMagic,
                 snapshot::kFooterMagic + 8);
    const std::string path = dir + "/job-e105.uqsnap";
    writeBytes(path, image);

    try {
        snapshot::readFile(path);
        FAIL() << "a version-1 file decoded";
    } catch (const SnapshotFormatError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("version 1"), std::string::npos) << what;
        EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    }
}

TEST(SnapshotFormat, LayerMismatchNamesTheLayerAndBothValues)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("layers"));
    const auto factory = [] {
        return Simulation::fromBundle(faultyBundle(7));
    };
    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.5));
    const std::vector<std::uint8_t> image =
        readBytes(snapshot::writeCheckpoint(*checkpointed, dir, "ok"));
    ASSERT_EQ(image.size(), snapshot::kSnapshotSize);
    const Snapshot original = snapshot::decode(image);

    // Flip one bit of each fold in turn: restore replays cleanly
    // (the trace digest still matches) and must then name exactly
    // that layer, with the stored and the live fold.
    for (std::size_t i = 0; i < snapshot::kLayerCount; ++i) {
        const std::size_t offset = 56 + 8 * i;
        std::vector<std::uint8_t> edited = image;
        edited[offset] ^= 0x01;
        reseal(edited);
        const Snapshot stored = snapshot::decode(edited);
        const std::string path =
            dir + "/flip" + std::to_string(i) + ".uqsnap";
        writeBytes(path, edited);

        auto restored = factory();
        try {
            snapshot::restoreFromSnapshot(*restored, path);
            FAIL() << "layer " << i << " was not compared";
        } catch (const SnapshotStateError& error) {
            const std::string what = error.what();
            const std::string layer =
                snapshot::layerName(static_cast<Layer>(i));
            EXPECT_NE(what.find("in the " + layer + " layer"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(snapshot::hex(stored.folds[i])),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(snapshot::hex(original.folds[i])),
                      std::string::npos)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: segmentation and checkpoint/restore are invisible

TEST(CheckpointDeterminism, SegmentedRunMatchesStraightThrough)
{
    const auto factory = [] { return makeTwoTier(4000.0, 11); };
    auto straight = factory();
    const RunReport straight_report = straight->run();

    auto segmented = factory();
    segmented->advanceToTime(secondsToSimTime(0.13));
    // Odd-sized event chunks, then time again, then the rest.
    while (segmented->advanceToEvents(
               segmented->sim().executedEvents() + 777) ==
               StopReason::EventLimit &&
           simTimeToSeconds(segmented->sim().now()) < 0.4) {
    }
    segmented->advanceToTime(secondsToSimTime(0.61));
    const RunReport segmented_report = segmented->finishRun();

    EXPECT_EQ(segmented->sim().traceDigest(),
              straight->sim().traceDigest());
    EXPECT_EQ(segmented->sim().executedEvents(),
              straight->sim().executedEvents());
    EXPECT_EQ(segmented->sim().now(), straight->sim().now());
    EXPECT_EQ(segmented_report.completed, straight_report.completed);
    EXPECT_EQ(segmented_report.endToEnd.p99Ms,
              straight_report.endToEnd.p99Ms);
}

TEST(CheckpointDeterminism, RestoreReproducesStraightThroughDigest)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("ckpt"));
    const auto factory = [] { return makeTwoTier(5000.0, 3); };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto checkpointed = factory();
    checkpointed->advanceToEvents(5000);
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "mid");
    const RunReport checkpointed_report = checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    EXPECT_EQ(restored->sim().executedEvents(), 5000u);
    const RunReport restored_report = restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
    EXPECT_EQ(restored_report.completed,
              checkpointed_report.completed);
    EXPECT_EQ(restored_report.endToEnd.p99Ms,
              checkpointed_report.endToEnd.p99Ms);
    EXPECT_EQ(restored_report.achievedQps,
              checkpointed_report.achievedQps);
}

TEST(CheckpointDeterminism, MidFaultWindowCheckpointRestoresExactly)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("fault"));
    const auto factory = [] {
        return Simulation::fromBundle(faultyBundle(7));
    };
    const std::uint64_t reference = straightThroughDigest(factory);

    // t = 0.5 s is inside both the crash outage (0.4–0.6) and the
    // network degradation window (0.3–0.7).
    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.5));
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "infault");
    checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
}

TEST(CheckpointDeterminism, FlowModelCheckpointRestoresExactly)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("flow"));
    models::FanoutFatTreeParams params;
    params.run.qps = 500.0;
    params.run.seed = 5;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.4;
    params.fanout = 4;
    const auto factory = [&params] {
        ConfigBundle bundle = models::fanoutFatTreeBundle(params);
        // Degrade the fabric mid-run so FlowModel fault state is
        // live at the checkpoint too.
        bundle.faults = json::parse(
            R"({"faults": [{"type": "network", "start_s": 0.15,)"
            R"( "end_s": 0.3, "extra_latency_us": 200.0,)"
            R"( "loss_prob": 0.05}]})");
        return Simulation::fromBundle(std::move(bundle));
    };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.2));
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "flow");
    checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
}

TEST(CheckpointDeterminism, DiskTierCheckpointRestoresExactly)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("disk"));
    models::CacheStampedeParams params;
    params.run.qps = 1500.0;
    params.run.seed = 9;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.5;
    params.run.clientConnections = 64;
    const auto factory = [&params] {
        return Simulation::fromBundle(
            models::cacheStampedeBundle(params));
    };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.25));
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "disk");
    checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
}

TEST(CheckpointDeterminism, ConfigOrSeedDriftIsAHardError)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("drift"));
    auto original = makeTwoTier(4000.0, 11);
    original->advanceToEvents(2000);
    const std::string path =
        snapshot::writeCheckpoint(*original, dir, "orig");

    auto different_load = makeTwoTier(4500.0, 11);
    EXPECT_THROW(snapshot::restoreFromSnapshot(*different_load, path),
                 SnapshotStateError);

    auto different_seed = makeTwoTier(4000.0, 12);
    EXPECT_THROW(snapshot::restoreFromSnapshot(*different_seed, path),
                 SnapshotStateError);

    // Restore targets must be fresh: a simulation that already
    // executed events cannot be replay-validated.
    auto stale = makeTwoTier(4000.0, 11);
    stale->advanceToEvents(100);
    EXPECT_THROW(snapshot::restoreFromSnapshot(*stale, path),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// Warm-state forking

TEST(WarmFork, UnmodifiedForkReplaysReseedDivergesScaleLoads)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("fork"));
    const auto factory = [] { return makeTwoTier(4000.0, 21); };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto warm = factory();
    warm->advanceToTime(secondsToSimTime(0.2));
    const std::string path =
        snapshot::writeCheckpoint(*warm, dir, "warm");

    // scale 1.0 / no reseed: the fork IS the original run.
    auto identical =
        snapshot::forkFromSnapshot(factory, path, {});
    const RunReport identical_report = identical->finishRun();
    EXPECT_EQ(identical->sim().traceDigest(), reference);

    // Reseeded fork: same warm state, decorrelated workload.
    snapshot::ForkOptions reseed;
    reseed.reseedToken = 99;
    auto reseeded = snapshot::forkFromSnapshot(factory, path, reseed);
    reseeded->finishRun();
    EXPECT_NE(reseeded->sim().traceDigest(), reference);

    // Load-scaled fork: clearly more offered (and achieved) load.
    snapshot::ForkOptions scaled;
    scaled.loadScale = 1.5;
    auto heavier = snapshot::forkFromSnapshot(factory, path, scaled);
    const RunReport heavier_report = heavier->finishRun();
    EXPECT_NE(heavier->sim().traceDigest(), reference);
    EXPECT_GT(heavier_report.achievedQps,
              identical_report.achievedQps * 1.2);
}

}  // namespace
}  // namespace uqsim
