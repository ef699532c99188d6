#ifndef UQSIM_SNAPSHOT_CHECKPOINT_H_
#define UQSIM_SNAPSHOT_CHECKPOINT_H_

/**
 * @file
 * Verified restore and warm-state forking on top of the snapshot
 * format (snapshot.h, docs/FORMATS.md).
 *
 * writeCheckpoint() stores a paused simulation's replay coordinates
 * and layer folds as "<dir>/<prefix>-e<events>.uqsnap" via
 * snapshot::writeFile's atomic write-then-rename.  Callers pause a
 * run with the segmented-run API (Simulation::advanceToEvents /
 * advanceToTime), whose segment boundaries never move the clock, so
 * a run cut for a checkpoint fires the exact same event sequence,
 * and produces the exact same trace digest, as a straight one.
 *
 * Restore is replay-validated (see snapshot.h): the caller rebuilds
 * a Simulation from the identical configuration, and
 * restoreFromSnapshot() replays it to the snapshot's executed-event
 * count, checks the trace digest, and compares the seven per-layer
 * folds.  forkFromSnapshot() additionally re-seeds the client
 * workload streams and/or scales the offered load — the warm-state
 * forking workflow (examples/warm_fork.cpp): many what-if
 * continuations from one validated warm state.  Every restore or
 * fork replays from event 0, so neither saves wall time; a killed
 * sweep resumes from its run journal instead (runner/run_journal.h).
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace snapshot {

/**
 * Writes @p simulation's replay coordinates and layer folds
 * atomically to "<dir>/<prefix>-e<events>.uqsnap" (directories
 * created as needed).  Returns the final path.
 */
std::string writeCheckpoint(const Simulation& simulation,
                            const std::string& dir,
                            const std::string& prefix);

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
