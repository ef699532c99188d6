#ifndef UQSIM_STATS_RUNNING_QUANTILE_H_
#define UQSIM_STATS_RUNNING_QUANTILE_H_

/**
 * @file
 * Exact running quantile at one fixed fraction.
 *
 * Keeps every observation in two heaps split at the type-7 rank: a
 * max-heap of the lo + 1 smallest and a min-heap of the rest, so the
 * order statistics at lo and lo + 1 are the two heap tops.  add() is
 * O(log n) and value() is O(1), where PercentileRecorder copies and
 * sorts every observation on the first query after an add.  Both go
 * through Type7Rank, so value() is bit-identical to
 * PercentileRecorder::percentile(q * 100.0) over the same
 * observations.
 */

#include <cstddef>
#include <vector>

#include "uqsim/stats/percentile_recorder.h"

namespace uqsim {
namespace stats {

/** Maintains the exact type-7 quantile of a growing stream. */
class RunningQuantile {
  public:
    /** @p q is the quantile as a fraction in [0, 1]. */
    explicit RunningQuantile(double q);

    /** Adds one observation; O(log n). */
    void add(double value);

    std::size_t count() const { return lower_.size() + upper_.size(); }

    /** The quantile of every observation so far; 0 when empty. */
    double value() const;

  private:
    /** q * 100, the percentile Type7Rank takes. */
    double percent_;
    Type7Rank rank_;
    /** Max-heap of the rank_.lo + 1 smallest observations. */
    std::vector<double> lower_;
    /** Min-heap of the remaining observations. */
    std::vector<double> upper_;
};

}  // namespace stats
}  // namespace uqsim

#endif  // UQSIM_STATS_RUNNING_QUANTILE_H_
