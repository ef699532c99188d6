#ifndef UQSIM_SNAPSHOT_CHECKPOINT_H_
#define UQSIM_SNAPSHOT_CHECKPOINT_H_

/**
 * @file
 * Verified restore on top of the snapshot format (snapshot.h,
 * docs/FORMATS.md).
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
 * folds.  Every restore replays from event 0, so it saves no wall
 * time; a killed sweep resumes from its run journal instead
 * (runner/run_journal.h), and a warm-state fork pauses a fresh run
 * at its warm-up boundary in memory (examples/warm_fork.cpp).
 */

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

}  // namespace snapshot
}  // namespace uqsim

#endif  // UQSIM_SNAPSHOT_CHECKPOINT_H_
