#ifndef UQSIM_SNAPSHOT_STATE_IO_H_
#define UQSIM_SNAPSHOT_STATE_IO_H_

/**
 * @file
 * Shared helper for layer foldState() implementations.
 *
 * Every stateful layer owns one or more xoshiro256++ streams whose
 * position must be pinned by a snapshot: a replayed run that drew one
 * sample more or less than the original would diverge from the first
 * post-restore event.  Folding the full generator state (four state
 * words plus the Gaussian carry) makes that divergence show in the
 * owning layer's fold rather than only later in the trace digest.
 */

#include "uqsim/random/rng.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace snapshot {

/** Folds an RNG's full state into @p digest. */
inline void
digestRngState(Digest& digest, const random::Rng::State& state)
{
    for (int i = 0; i < 4; ++i)
        digest.u64(state.words[i]);
    digest.boolean(state.hasSpareGaussian);
    digest.f64(state.spareGaussian);
}

}  // namespace snapshot
}  // namespace uqsim

#endif  // UQSIM_SNAPSHOT_STATE_IO_H_
