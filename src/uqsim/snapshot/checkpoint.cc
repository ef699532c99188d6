#include "uqsim/snapshot/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "uqsim/core/engine/run_control.h"
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

/** Parses "<prefix>-e<digits>.uqsnap"; nullopt when the name does
 *  not match (foreign files in the directory are left alone). */
std::optional<std::uint64_t>
eventsFromFileName(const std::string& name, const std::string& prefix)
{
    const std::string head = prefix + "-e";
    const std::string tail = ".uqsnap";
    if (name.size() <= head.size() + tail.size())
        return std::nullopt;
    if (name.compare(0, head.size(), head) != 0)
        return std::nullopt;
    if (name.compare(name.size() - tail.size(), tail.size(), tail) !=
        0) {
        return std::nullopt;
    }
    const std::string digits = name.substr(
        head.size(), name.size() - head.size() - tail.size());
    if (digits.empty())
        return std::nullopt;
    std::uint64_t events = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return std::nullopt;
        events = events * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return events;
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
pruneCheckpoints(const std::string& dir, const std::string& prefix,
                 int keep)
{
    if (keep <= 0)
        return;
    std::error_code ec;
    std::vector<std::pair<std::uint64_t, fs::path>> found;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const auto events = eventsFromFileName(
            entry.path().filename().string(), prefix);
        if (events)
            found.emplace_back(*events, entry.path());
    }
    if (found.size() <= static_cast<std::size_t>(keep))
        return;
    std::sort(found.begin(), found.end());
    const std::size_t doomed =
        found.size() - static_cast<std::size_t>(keep);
    for (std::size_t i = 0; i < doomed; ++i)
        fs::remove(found[i].second, ec);
}

std::optional<FoundSnapshot>
newestValidSnapshot(const std::string& dir, const std::string& prefix)
{
    std::error_code ec;
    std::vector<std::pair<std::uint64_t, fs::path>> found;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const auto events = eventsFromFileName(
            entry.path().filename().string(), prefix);
        if (events)
            found.emplace_back(*events, entry.path());
    }
    // Newest first so the most recent structurally valid file wins;
    // a half-written or bit-rotted newest falls through to the next.
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return b < a; });
    for (const auto& [events, path] : found) {
        try {
            return FoundSnapshot{path.string(),
                                 readFile(path.string()).meta};
        } catch (const SnapshotError&) {
            continue;
        }
    }
    return std::nullopt;
}

CheckpointManager::CheckpointManager(Simulation& simulation,
                                     CheckpointOptions options)
    : simulation_(simulation), options_(std::move(options))
{
}

void
CheckpointManager::checkpoint()
{
    written_.push_back(
        writeCheckpoint(simulation_, options_.dir, options_.prefix));
    pruneCheckpoints(options_.dir, options_.prefix, options_.keep);
}

RunReport
CheckpointManager::run()
{
    if (!options_.enabled())
        return simulation_.run();
    try {
        if (options_.everyEvents > 0) {
            while (true) {
                const std::uint64_t target =
                    simulation_.sim().executedEvents() +
                    options_.everyEvents;
                const StopReason reason =
                    simulation_.advanceToEvents(target);
                // Anything short of the cadence target means the run
                // itself is over (horizon, drain, global budget).
                if (reason != StopReason::EventLimit ||
                    simulation_.sim().executedEvents() < target) {
                    break;
                }
                checkpoint();
            }
        } else {
            const SimTime period =
                secondsToSimTime(options_.everySimSeconds);
            const SimTime horizon = secondsToSimTime(
                simulation_.options().durationSeconds);
            // Absolute marks (k * period), not now+period, so the
            // cadence does not drift with event timing.
            SimTime mark = period;
            while (mark < horizon) {
                const StopReason reason =
                    simulation_.advanceToTime(mark);
                if (reason != StopReason::TimeLimit)
                    break;
                checkpoint();
                // Segment boundaries never move the clock, so now()
                // sits *before* the mark here; step to the next mark
                // unconditionally (and past any marks a single long
                // event jumped over) or the loop would re-run a
                // zero-event segment forever.
                do {
                    mark += period;
                } while (mark <= simulation_.sim().now());
            }
        }
        return simulation_.finishRun();
    } catch (const SimulationAbortError&) {
        // Last-gasp checkpoint at the abort point: the abort was
        // raised between events, so the state is consistent.  An
        // I/O failure here must not mask the abort.
        try {
            checkpoint();
        } catch (const std::exception& error) {
            std::fprintf(
                stderr,
                "uqsim: checkpoint after abort failed: %s\n",
                error.what());
        }
        throw;
    }
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

std::unique_ptr<Simulation>
forkFromSnapshot(
    const std::function<std::unique_ptr<Simulation>()>& factory,
    const std::string& path, const ForkOptions& options)
{
    std::unique_ptr<Simulation> forked = factory();
    if (!forked) {
        throw std::logic_error(
            "forkFromSnapshot: factory returned null");
    }
    restoreFromSnapshot(*forked, path);
    // Divergence knobs apply only after the restore validated the
    // original configuration.
    for (auto& client : forked->clients()) {
        if (options.reseedToken != 0)
            client->reseed(options.reseedToken);
        if (options.loadScale != 1.0)
            client->scaleLoad(options.loadScale);
    }
    return forked;
}

}  // namespace snapshot
}  // namespace uqsim
