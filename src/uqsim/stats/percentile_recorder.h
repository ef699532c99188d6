#ifndef UQSIM_STATS_PERCENTILE_RECORDER_H_
#define UQSIM_STATS_PERCENTILE_RECORDER_H_

/**
 * @file
 * Exact-percentile latency recorder.
 *
 * Stores every observation and computes percentiles by sorting on
 * demand: the sorted order is cached until the next add, so the
 * first query after an add copies and sorts all n values.  That
 * suits end-of-run reports; per-event code must not query a growing
 * recorder (RunningQuantile answers one fixed quantile in O(1)).
 * Simulation runs record at most a few million latencies, so exact
 * storage is cheap and avoids quantile-sketch error in validation
 * figures.
 */

#include <cstddef>
#include <vector>

#include "uqsim/stats/summary.h"

namespace uqsim {
namespace stats {

/**
 * Where the type-7 percentile (linear interpolation between closest
 * ranks, the numpy default) of @p p in [0, 100] sits among n >= 1
 * sorted observations: the order statistic at lo, or between lo and
 * hi = lo + 1 at fraction frac.  PercentileRecorder and
 * RunningQuantile both go through it, so they return the same bits
 * for the same observations.
 */
struct Type7Rank {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;

    static Type7Rank of(double p, std::size_t n);

    /** The percentile, given the order statistics at lo and hi. */
    double
    interpolate(double lo_value, double hi_value) const
    {
        if (lo == hi)
            return lo_value;
        return lo_value * (1.0 - frac) + hi_value * frac;
    }
};

/** Records observations and answers exact percentile queries. */
class PercentileRecorder {
  public:
    PercentileRecorder() = default;

    /** Adds one observation. */
    void add(double value);

    /**
     * Appends all of @p other's observations to this recorder.
     * Merging the recorders of independent replications is exactly
     * equivalent to having recorded the pooled stream (observations
     * keep insertion order within each source; percentiles are
     * order-independent).  Merging an empty recorder is a no-op.
     */
    void merge(const PercentileRecorder& other);

    /** Number of recorded observations. */
    std::size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    /**
     * Exact percentile with linear interpolation between order
     * statistics (Type7Rank); @p p is in [0, 100].  Returns 0 when
     * empty.  Sorts a full copy on the first query after an add.
     */
    double percentile(double p) const;

    /** Convenience accessors. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }
    double mean() const { return summary_.mean(); }
    double max() const { return summary_.max(); }
    double min() const { return summary_.min(); }
    const Summary& summary() const { return summary_; }

    /** Drops all observations. */
    void reset();

    /** Raw observations in insertion order. */
    const std::vector<double>& values() const { return values_; }

  private:
    void ensureSorted() const;

    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
    Summary summary_;
};

}  // namespace stats
}  // namespace uqsim

#endif  // UQSIM_STATS_PERCENTILE_RECORDER_H_
