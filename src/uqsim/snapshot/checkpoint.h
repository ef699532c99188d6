#ifndef UQSIM_SNAPSHOT_CHECKPOINT_H_
#define UQSIM_SNAPSHOT_CHECKPOINT_H_

/**
 * @file
 * Checkpointed execution, crash recovery, and warm-state forking on
 * top of the snapshot format (snapshot.h, docs/FORMATS.md).
 *
 * CheckpointManager runs a finalized Simulation to completion while
 * writing a snapshot every N executed events or every S simulated
 * seconds.  Files land as "<dir>/<prefix>-e<events>.uqsnap" via
 * snapshot::writeFile's atomic write-then-rename, and only the newest
 * `keep` are retained.  Checkpointing rides entirely on the segmented-run API
 * (Simulation::advanceToEvents / advanceToTime), whose segment
 * boundaries never move the clock — a checkpointed run fires the
 * exact same event sequence, and therefore produces the exact same
 * trace digest, as an uncheckpointed one.
 *
 * Abort ordering: when a supervisor aborts the run cooperatively
 * (RunControl → SimulationAbortError, raised *between* events), the
 * manager writes one final checkpoint at the abort point before
 * letting the exception continue to the harness.  A failure to
 * write that last-gasp snapshot is reported on stderr but never
 * masks the abort itself.
 *
 * Restore is replay-validated (see snapshot.h): the caller rebuilds
 * a Simulation from the identical configuration, and
 * restoreFromSnapshot() replays it to the snapshot's executed-event
 * count, checks the trace digest, and compares the seven per-layer
 * folds.  forkFromSnapshot() additionally re-seeds the client
 * workload streams and/or scales the offered load — the warm-state
 * forking workflow (examples/warm_fork.cpp): many what-if
 * continuations from one validated warm state.  Every restore or
 * fork replays from event 0, so neither saves wall time.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace snapshot {

/** Where and how often to checkpoint. */
struct CheckpointOptions {
    /** Directory for snapshot files; created on first write.
     *  Empty disables checkpointing. */
    std::string dir;
    /** Filename stem: "<prefix>-e<events>.uqsnap". */
    std::string prefix = "ckpt";
    /** Checkpoint every N executed events; 0 disables the event
     *  cadence. */
    std::uint64_t everyEvents = 0;
    /** Checkpoint every S simulated seconds; 0 disables the time
     *  cadence.  Ignored when everyEvents is set. */
    double everySimSeconds = 0.0;
    /** Snapshots retained per prefix; older ones are pruned after
     *  each write.  <= 0 keeps everything. */
    int keep = 2;

    bool enabled() const
    {
        return !dir.empty() &&
               (everyEvents > 0 || everySimSeconds > 0.0);
    }
};

/**
 * Writes @p simulation's replay coordinates and layer folds
 * atomically to "<dir>/<prefix>-e<events>.uqsnap" (directories
 * created as needed).  Returns the final path.
 */
std::string writeCheckpoint(const Simulation& simulation,
                            const std::string& dir,
                            const std::string& prefix);

/** Deletes all but the newest @p keep "<prefix>-e*.uqsnap" files in
 *  @p dir (newest = highest event count).  @p keep <= 0 is a no-op. */
void pruneCheckpoints(const std::string& dir,
                      const std::string& prefix, int keep);

/** A structurally valid on-disk snapshot. */
struct FoundSnapshot {
    std::string path;
    SnapshotMeta meta;
};

/**
 * Scans @p dir for "<prefix>-e*.uqsnap" files and returns the one
 * with the highest executed-event count that decodes (magics, CRC,
 * version, size).  Corrupt or truncated files, and files of another
 * format version, are skipped, never fatal.  Empty when nothing
 * valid is found.
 */
std::optional<FoundSnapshot>
newestValidSnapshot(const std::string& dir,
                    const std::string& prefix);

/**
 * Runs a finalized Simulation to completion with periodic
 * checkpoints; see the file comment for cadence, retention, and
 * abort ordering.  With options.enabled() false this degenerates to
 * exactly Simulation::run().
 */
class CheckpointManager {
  public:
    CheckpointManager(Simulation& simulation,
                      CheckpointOptions options);

    /**
     * Runs to the configured duration, checkpointing on the way,
     * and returns the final report.  On SimulationAbortError a
     * final checkpoint is written before the exception propagates.
     */
    RunReport run();

    /** Paths written so far, oldest first (pruned files included). */
    const std::vector<std::string>& written() const
    {
        return written_;
    }

  private:
    void checkpoint();

    Simulation& simulation_;
    CheckpointOptions options_;
    std::vector<std::string> written_;
};

/**
 * Replay-validated restore of @p path into @p simulation, which must
 * be freshly finalized (zero executed events) from the *identical*
 * configuration.  Verifies the config digest and master seed against
 * the snapshot meta, replays to the pinned event count, verifies the
 * trace digest, then compares Simulation::layerFolds() with the
 * stored folds, naming the first layer that differs.  In
 * audit mode (UQSIM_AUDIT) a full post-restore invariant pass runs
 * on top.  On success the simulation stands exactly where the
 * checkpointed run stood and can be continued with advance* /
 * finishRun().
 *
 * @throws SnapshotFormatError  unreadable/corrupt file
 * @throws SnapshotStateError   config mismatch or replay divergence
 */
void restoreFromSnapshot(Simulation& simulation,
                         const std::string& path);

/** What to change in a forked continuation. */
struct ForkOptions {
    /** Re-seed every client's workload stream from this master seed;
     *  0 keeps the original streams (the fork then replays the
     *  original run exactly). */
    std::uint64_t reseedToken = 0;
    /** Multiply every client's offered-load pattern; 1.0 keeps the
     *  original load. */
    double loadScale = 1.0;
};

/**
 * Warm-state fork: builds a fresh Simulation via @p factory (which
 * must reproduce the checkpointed configuration and finalize() it),
 * restores @p path into it, then applies @p options.  The divergence
 * knobs are applied *after* restore validation, so the restore still
 * checks against the original configuration.
 */
std::unique_ptr<Simulation>
forkFromSnapshot(
    const std::function<std::unique_ptr<Simulation>()>& factory,
    const std::string& path, const ForkOptions& options = {});

}  // namespace snapshot
}  // namespace uqsim

#endif  // UQSIM_SNAPSHOT_CHECKPOINT_H_
