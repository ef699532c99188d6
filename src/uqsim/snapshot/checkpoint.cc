#include "uqsim/snapshot/checkpoint.h"

#include <filesystem>
#include <stdexcept>

#include "uqsim/core/sim/audit.h"

namespace uqsim {
namespace snapshot {

namespace fs = std::filesystem;

namespace {

std::string
checkpointFileName(const std::string& prefix, std::uint64_t events)
{
    return prefix + "-e" + std::to_string(events) + ".uqsnap";
}

}  // namespace

std::string
writeCheckpoint(const Simulation& simulation, const std::string& dir,
                const std::string& prefix)
{
    const Snapshot snapshot{simulation.snapshotMeta(),
                            simulation.layerFolds()};
    std::error_code ec;
    fs::create_directories(dir, ec);  // writeFile reports failures
    const std::string path =
        (fs::path(dir) /
         checkpointFileName(prefix, snapshot.meta.executedEvents))
            .string();
    writeFile(path, snapshot);
    return path;
}

void
restoreFromSnapshot(Simulation& simulation, const std::string& path)
{
    const Snapshot snapshot = readFile(path);
    const SnapshotMeta& meta = snapshot.meta;

    if (!simulation.finalized()) {
        throw std::logic_error(
            "restoreFromSnapshot: simulation must be finalized");
    }
    if (simulation.sim().executedEvents() != 0) {
        throw std::logic_error(
            "restoreFromSnapshot: simulation must be fresh "
            "(zero executed events)");
    }
    if (meta.configDigest != simulation.configDigest()) {
        throw SnapshotStateError(
            "snapshot \"" + path +
            "\" was taken from a different configuration: stored "
            "config digest " + std::to_string(meta.configDigest) +
            ", live " + std::to_string(simulation.configDigest()));
    }
    if (meta.masterSeed != simulation.sim().masterSeed()) {
        throw SnapshotStateError(
            "snapshot \"" + path + "\" master seed " +
            std::to_string(meta.masterSeed) +
            " differs from live seed " +
            std::to_string(simulation.sim().masterSeed()));
    }

    const StopReason reason =
        simulation.advanceToEvents(meta.executedEvents);
    if (simulation.sim().executedEvents() != meta.executedEvents) {
        throw SnapshotStateError(
            "replay stopped early (" +
            std::string(stopReasonName(reason)) + " after " +
            std::to_string(simulation.sim().executedEvents()) +
            " events, snapshot pinned at " +
            std::to_string(meta.executedEvents) + ")");
    }
    if (simulation.sim().traceDigest() != meta.traceDigest) {
        throw SnapshotStateError(
            "replay diverged: trace digest " +
            std::to_string(simulation.sim().traceDigest()) +
            " after " + std::to_string(meta.executedEvents) +
            " events, snapshot recorded " +
            std::to_string(meta.traceDigest));
    }

    const LayerFolds live = simulation.layerFolds();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
        if (live[i] != snapshot.folds[i]) {
            throw SnapshotStateError(
                std::string("replay diverged in the ") +
                layerName(static_cast<Layer>(i)) +
                " layer: snapshot fold " + hex(snapshot.folds[i]) +
                ", live " + hex(live[i]));
        }
    }

    if (audit::auditModeEnabled()) {
        simulation.sim().auditEngine().raise("post-restore");
        audit::auditSimulation(simulation, /*at_drain=*/false)
            .raise("post-restore");
    }
}

}  // namespace snapshot
}  // namespace uqsim
