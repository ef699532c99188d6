/**
 * @file
 * Unit tests for the statistics substrate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "uqsim/random/rng.h"
#include "uqsim/stats/confidence.h"
#include "uqsim/stats/latency_histogram.h"
#include "uqsim/stats/percentile_recorder.h"
#include "uqsim/stats/running_quantile.h"
#include "uqsim/stats/summary.h"
#include "uqsim/stats/throughput_meter.h"
#include "uqsim/stats/time_series.h"
#include "uqsim/stats/windowed_tail_tracker.h"

namespace uqsim {
namespace stats {
namespace {

// -------------------------------------------------------------- Summary

TEST(Summary, EmptyIsZero)
{
    Summary summary;
    EXPECT_EQ(summary.count(), 0u);
    EXPECT_DOUBLE_EQ(summary.mean(), 0.0);
    EXPECT_DOUBLE_EQ(summary.variance(), 0.0);
    EXPECT_DOUBLE_EQ(summary.min(), 0.0);
    EXPECT_DOUBLE_EQ(summary.max(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary summary;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        summary.add(v);
    EXPECT_EQ(summary.count(), 8u);
    EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
    EXPECT_NEAR(summary.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(summary.min(), 2.0);
    EXPECT_DOUBLE_EQ(summary.max(), 9.0);
    EXPECT_DOUBLE_EQ(summary.sum(), 40.0);
}

TEST(Summary, SingleValueHasZeroVariance)
{
    Summary summary;
    summary.add(3.0);
    EXPECT_DOUBLE_EQ(summary.variance(), 0.0);
    EXPECT_DOUBLE_EQ(summary.stddev(), 0.0);
}

TEST(Summary, MergeMatchesCombinedStream)
{
    random::Rng rng(5);
    Summary all, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble() * 10.0;
        all.add(v);
        (i % 2 == 0 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Summary, ResetClears)
{
    Summary summary;
    summary.add(5.0);
    summary.reset();
    EXPECT_EQ(summary.count(), 0u);
}

// -------------------------------------------------- PercentileRecorder

TEST(PercentileRecorder, EmptyReturnsZero)
{
    PercentileRecorder recorder;
    EXPECT_DOUBLE_EQ(recorder.percentile(99.0), 0.0);
    EXPECT_TRUE(recorder.empty());
}

TEST(PercentileRecorder, ExactOrderStatistics)
{
    PercentileRecorder recorder;
    for (int i = 100; i >= 1; --i)  // insertion order irrelevant
        recorder.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(recorder.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(100.0), 100.0);
    // Type-7 interpolation: p50 of 1..100 is 50.5.
    EXPECT_DOUBLE_EQ(recorder.p50(), 50.5);
    EXPECT_NEAR(recorder.p99(), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(recorder.mean(), 50.5);
}

TEST(PercentileRecorder, InterpolatesBetweenRanks)
{
    PercentileRecorder recorder;
    recorder.add(0.0);
    recorder.add(10.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(50.0), 5.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(25.0), 2.5);
}

TEST(PercentileRecorder, PercentileClamped)
{
    PercentileRecorder recorder;
    recorder.add(1.0);
    recorder.add(2.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(-5.0), 1.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(150.0), 2.0);
}

TEST(PercentileRecorder, CacheInvalidatedByAdd)
{
    PercentileRecorder recorder;
    recorder.add(1.0);
    EXPECT_DOUBLE_EQ(recorder.p99(), 1.0);
    recorder.add(100.0);
    EXPECT_GT(recorder.p99(), 90.0);
}

TEST(PercentileRecorder, ResetClears)
{
    PercentileRecorder recorder;
    recorder.add(5.0);
    recorder.reset();
    EXPECT_TRUE(recorder.empty());
    EXPECT_DOUBLE_EQ(recorder.p99(), 0.0);
}

TEST(PercentileRecorder, ExponentialTailMatchesTheory)
{
    // p99 of exp(mean) = mean * ln(100).
    random::Rng rng(123);
    random::Rng rng2(123);
    PercentileRecorder recorder;
    for (int i = 0; i < 200000; ++i)
        recorder.add(-std::log(1.0 - rng.nextDouble()));
    (void)rng2;
    EXPECT_NEAR(recorder.p99(), std::log(100.0), 0.1);
    EXPECT_NEAR(recorder.p50(), std::log(2.0), 0.02);
}

// ------------------------------------------------------ RunningQuantile

TEST(RunningQuantile, EmptyReturnsZero)
{
    RunningQuantile quantile(0.95);
    EXPECT_EQ(quantile.count(), 0u);
    EXPECT_EQ(quantile.value(), 0.0);
}

TEST(RunningQuantile, MatchesRecorderBitForBitAfterEveryAdd)
{
    // Streams with many ties: small integers, exponential latencies
    // rounded to a 10 us grid, and a descending staircase (every
    // value lands below the current quantile).
    const std::vector<std::function<double(random::Rng&, int)>> streams = {
        [](random::Rng& rng, int) {
            return static_cast<double>(rng.nextBounded(40)) * 0.25;
        },
        [](random::Rng& rng, int) {
            const double latency = -std::log(rng.nextDoubleOpenLeft());
            return std::round(latency * 100.0) * 1e-5;
        },
        [](random::Rng&, int i) {
            return static_cast<double>(5000 - i / 3) * 1e-6;
        },
    };
    const double qs[] = {0.01, 0.5, 0.9, 0.95, 0.99, 0.999};
    for (std::size_t s = 0; s < streams.size(); ++s) {
        random::Rng rng(17 + s);
        PercentileRecorder recorder;
        std::vector<RunningQuantile> running;
        for (const double q : qs)
            running.emplace_back(q);
        for (int i = 0; i < 3000; ++i) {
            const double value = streams[s](rng, i);
            recorder.add(value);
            for (std::size_t k = 0; k < running.size(); ++k) {
                running[k].add(value);
                ASSERT_EQ(running[k].value(),
                          recorder.percentile(qs[k] * 100.0))
                    << "stream " << s << ", q " << qs[k] << ", after "
                    << i + 1 << " samples";
            }
        }
        EXPECT_EQ(running.front().count(), recorder.count());
    }
}

// ---------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, CountsAndMean)
{
    LatencyHistogram hist(1e-6, 7);
    hist.add(1e-3);
    hist.addN(2e-3, 3);
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_NEAR(hist.mean(), (1e-3 + 3 * 2e-3) / 4.0, 1e-12);
    EXPECT_NEAR(hist.max(), 2e-3, 1e-12);
    EXPECT_NEAR(hist.min(), 1e-3, 1e-12);
}

TEST(LatencyHistogram, BoundedRelativeError)
{
    LatencyHistogram hist(1e-9, 7);
    random::Rng rng(55);
    PercentileRecorder exact;
    for (int i = 0; i < 100000; ++i) {
        const double v = rng.nextDouble() * 1e-2;
        hist.add(v);
        exact.add(v);
    }
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        const double approx = hist.percentile(p);
        const double truth = exact.percentile(p);
        EXPECT_NEAR(approx, truth, truth * 0.02 + 1e-9)
            << "at percentile " << p;
    }
}

TEST(LatencyHistogram, MergeAddsCounts)
{
    LatencyHistogram a(1e-6, 7), b(1e-6, 7);
    a.add(1e-3);
    b.add(5e-3);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_NEAR(a.max(), 5e-3, 1e-12);
}

TEST(LatencyHistogram, MergeMismatchThrows)
{
    LatencyHistogram a(1e-6, 7), b(1e-6, 8);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencyHistogram, NegativeClampedToZero)
{
    LatencyHistogram hist;
    hist.add(-1.0);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
}

TEST(LatencyHistogram, EmptyPercentileIsZero)
{
    LatencyHistogram hist;
    EXPECT_DOUBLE_EQ(hist.percentile(99.0), 0.0);
}

TEST(LatencyHistogram, InvalidParamsThrow)
{
    EXPECT_THROW(LatencyHistogram(0.0, 7), std::invalid_argument);
    EXPECT_THROW(LatencyHistogram(1e-6, 0), std::invalid_argument);
    EXPECT_THROW(LatencyHistogram(1e-6, 30), std::invalid_argument);
}

TEST(LatencyHistogram, PercentileStaysWithinObservedRange)
{
    // Bucket midpoints can overshoot the recorded maximum (or
    // undershoot the minimum); percentiles must clamp to the
    // observed [min, max] range.
    LatencyHistogram hist(1e-6, 2);  // coarse buckets: wide midpoints
    hist.add(1.000e-3);
    hist.add(1.001e-3);
    hist.add(1.002e-3);
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.99}) {
        EXPECT_GE(hist.percentile(p), hist.min())
            << "at percentile " << p;
        EXPECT_LE(hist.percentile(p), hist.max())
            << "at percentile " << p;
    }
}

TEST(LatencyHistogram, P100ReturnsExactMax)
{
    LatencyHistogram hist(1e-6, 7);
    hist.add(1.0e-3);
    hist.add(7.7777e-3);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), hist.max());
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 7.7777e-3);
    // Out-of-range p clamps into [0, 100] first.
    EXPECT_DOUBLE_EQ(hist.percentile(250.0), 7.7777e-3);
}

TEST(LatencyHistogram, NonFiniteAndHugeValuesAreClamped)
{
    LatencyHistogram hist(1e-6, 7);
    hist.add(1e-3);
    hist.add(std::numeric_limits<double>::infinity());
    hist.addN(std::numeric_limits<double>::max(), 2);
    hist.add(std::numeric_limits<double>::quiet_NaN());  // counts as 0
    hist.add(-std::numeric_limits<double>::infinity());  // clamps to 0
    EXPECT_EQ(hist.count(), 6u);
    EXPECT_EQ(hist.clampedSamples(), 3u);
    // The recorded max is the finite ceiling, never inf/NaN.
    EXPECT_TRUE(std::isfinite(hist.max()));
    EXPECT_TRUE(std::isfinite(hist.mean()));
    EXPECT_TRUE(std::isfinite(hist.percentile(99.0)));
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);

    LatencyHistogram other(1e-6, 7);
    other.add(std::numeric_limits<double>::infinity());
    hist.merge(other);
    EXPECT_EQ(hist.clampedSamples(), 4u);
    hist.reset();
    EXPECT_EQ(hist.clampedSamples(), 0u);
}

// ------------------------------------------------- WindowedTailTracker

TEST(WindowedTailTracker, CloseComputesAndResets)
{
    WindowedTailTracker tracker;
    for (int i = 1; i <= 100; ++i)
        tracker.add(static_cast<double>(i));
    EXPECT_EQ(tracker.pending(), 100u);
    const WindowStats stats = tracker.close();
    EXPECT_EQ(stats.count, 100u);
    EXPECT_DOUBLE_EQ(stats.mean, 50.5);
    EXPECT_DOUBLE_EQ(stats.p50, 50.5);
    EXPECT_NEAR(stats.p99, 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(stats.max, 100.0);
    EXPECT_EQ(tracker.pending(), 0u);
    const WindowStats empty = tracker.close();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

TEST(WindowedTailTracker, PeekDoesNotReset)
{
    WindowedTailTracker tracker;
    tracker.add(1.0);
    tracker.add(3.0);
    const WindowStats peeked = tracker.peek();
    EXPECT_EQ(peeked.count, 2u);
    EXPECT_DOUBLE_EQ(peeked.mean, 2.0);
    EXPECT_EQ(tracker.pending(), 2u);
}

// ------------------------------------------------------------ TimeSeries

TEST(TimeSeries, ValueAtZeroOrderHold)
{
    TimeSeries series("freq");
    series.add(1.0, 2.6);
    series.add(5.0, 1.2);
    EXPECT_DOUBLE_EQ(series.valueAt(0.5, -1.0), -1.0);
    EXPECT_DOUBLE_EQ(series.valueAt(1.0), 2.6);
    EXPECT_DOUBLE_EQ(series.valueAt(4.999), 2.6);
    EXPECT_DOUBLE_EQ(series.valueAt(5.0), 1.2);
    EXPECT_DOUBLE_EQ(series.valueAt(100.0), 1.2);
    EXPECT_DOUBLE_EQ(series.lastValue(), 1.2);
}

TEST(TimeSeries, MeanOverWindow)
{
    TimeSeries series;
    series.add(0.0, 1.0);
    series.add(1.0, 2.0);
    series.add(2.0, 3.0);
    EXPECT_DOUBLE_EQ(series.meanOver(0.0, 2.0), 1.5);
    EXPECT_DOUBLE_EQ(series.meanOver(0.0, 3.0), 2.0);
    EXPECT_DOUBLE_EQ(series.meanOver(5.0, 6.0), 0.0);
}

TEST(TimeSeries, TextRendering)
{
    TimeSeries series;
    series.add(1.5, 2.5);
    EXPECT_EQ(series.toText(), "1.5 2.5\n");
}

// -------------------------------------------------------- ThroughputMeter

TEST(ThroughputMeter, OverallRate)
{
    ThroughputMeter meter;
    for (int i = 0; i <= 100; ++i)
        meter.record(static_cast<double>(i) * 0.01);
    EXPECT_EQ(meter.count(), 101u);
    EXPECT_NEAR(meter.overallRate(), 100.0, 1e-9);
}

TEST(ThroughputMeter, SingleEventHasNoRate)
{
    ThroughputMeter meter;
    meter.record(1.0);
    EXPECT_DOUBLE_EQ(meter.overallRate(), 0.0);
}

TEST(ThroughputMeter, BucketedRates)
{
    ThroughputMeter meter(1.0);
    for (int i = 0; i < 10; ++i)
        meter.record(0.05 * i);  // 10 events in bucket 0
    meter.record(1.5);           // 1 event in bucket 1
    const auto& rates = meter.bucketRates();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 10.0);
    EXPECT_DOUBLE_EQ(rates[1], 1.0);
    EXPECT_NEAR(meter.rateOver(0.0, 2.0), 5.5, 1e-9);
}

TEST(ThroughputMeter, NegativeBucketWidthThrows)
{
    EXPECT_THROW(ThroughputMeter(-1.0), std::invalid_argument);
}

// ------------------------------------------- mergeable statistics

TEST(Summary, MergeIsAssociative)
{
    random::Rng rng(17);
    Summary a, b, c;
    for (int i = 0; i < 300; ++i) {
        a.add(rng.nextGaussian());
        b.add(rng.nextGaussian() * 3.0 + 1.0);
        c.add(rng.nextDouble());
    }
    Summary left_first = a;
    left_first.merge(b);
    left_first.merge(c);
    Summary right_first = b;
    right_first.merge(c);
    Summary a_then_rest = a;
    a_then_rest.merge(right_first);
    EXPECT_EQ(left_first.count(), a_then_rest.count());
    EXPECT_NEAR(left_first.mean(), a_then_rest.mean(), 1e-12);
    EXPECT_NEAR(left_first.variance(), a_then_rest.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left_first.min(), a_then_rest.min());
    EXPECT_DOUBLE_EQ(left_first.max(), a_then_rest.max());
}

TEST(PercentileRecorder, MergeOfPartsEqualsSingleStream)
{
    random::Rng rng(23);
    PercentileRecorder all, left, right;
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.nextDouble() * 5.0;
        all.add(v);
        (i % 3 == 0 ? left : right).add(v);
    }
    left.merge(right);
    ASSERT_EQ(left.count(), all.count());
    // Percentiles sort, so they are bitwise independent of the
    // recording order of the pooled stream.
    for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(left.percentile(p), all.percentile(p));
    EXPECT_EQ(left.min(), all.min());
    EXPECT_EQ(left.max(), all.max());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
}

TEST(PercentileRecorder, MergeEmptyIsIdentity)
{
    PercentileRecorder recorder, empty;
    recorder.add(1.0);
    recorder.add(2.0);
    recorder.merge(empty);
    EXPECT_EQ(recorder.count(), 2u);
    EXPECT_EQ(recorder.p50(), 1.5);

    empty.merge(recorder);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.p50(), 1.5);

    PercentileRecorder blank, other_blank;
    blank.merge(other_blank);
    EXPECT_EQ(blank.count(), 0u);
    EXPECT_EQ(blank.percentile(50.0), 0.0);
}

TEST(PercentileRecorder, MergeIsAssociative)
{
    random::Rng rng(29);
    PercentileRecorder a, b, c;
    for (int i = 0; i < 500; ++i) {
        a.add(rng.nextDouble());
        b.add(rng.nextDouble() * 2.0);
        c.add(rng.nextDouble() * 0.5);
    }
    PercentileRecorder ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);
    PercentileRecorder bc = b;
    bc.merge(c);
    PercentileRecorder a_bc = a;
    a_bc.merge(bc);
    ASSERT_EQ(ab_c.count(), a_bc.count());
    for (double p : {10.0, 50.0, 90.0, 99.0})
        EXPECT_EQ(ab_c.percentile(p), a_bc.percentile(p));
}

TEST(PercentileRecorder, SelfMergeDoublesObservations)
{
    PercentileRecorder recorder;
    recorder.add(1.0);
    recorder.add(3.0);
    recorder.merge(recorder);
    EXPECT_EQ(recorder.count(), 4u);
    EXPECT_DOUBLE_EQ(recorder.mean(), 2.0);
}

TEST(PercentileRecorder, MergeInvalidatesCachedSort)
{
    PercentileRecorder a, b;
    a.add(1.0);
    EXPECT_DOUBLE_EQ(a.p50(), 1.0);  // caches the sorted order
    b.add(3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.p50(), 2.0);
}

TEST(LatencyHistogram, MergeOfPartsEqualsSingleStream)
{
    random::Rng rng(31);
    LatencyHistogram all(1e-6, 7), left(1e-6, 7), right(1e-6, 7);
    for (int i = 0; i < 3000; ++i) {
        const double v = rng.nextDouble() * 1e-2;
        all.add(v);
        (i % 2 == 0 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_EQ(left.percentile(50.0), all.percentile(50.0));
    EXPECT_EQ(left.percentile(99.0), all.percentile(99.0));
    EXPECT_EQ(left.max(), all.max());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
}

TEST(LatencyHistogram, MergeEmptyIsIdentity)
{
    LatencyHistogram histogram, empty;
    histogram.add(0.5);
    histogram.merge(empty);
    EXPECT_EQ(histogram.count(), 1u);
    empty.merge(histogram);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_EQ(empty.percentile(50.0), histogram.percentile(50.0));
}

TEST(LatencyHistogram, MergeIsAssociative)
{
    random::Rng rng(37);
    LatencyHistogram a, b, c;
    for (int i = 0; i < 1000; ++i) {
        a.add(rng.nextDouble() * 1e-3);
        b.add(rng.nextDouble() * 1e-2);
        c.add(rng.nextDouble() * 1e-1);
    }
    LatencyHistogram ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);
    LatencyHistogram bc = b;
    bc.merge(c);
    LatencyHistogram a_bc = a;
    a_bc.merge(bc);
    EXPECT_EQ(ab_c.count(), a_bc.count());
    for (double p : {10.0, 50.0, 90.0, 99.0})
        EXPECT_EQ(ab_c.percentile(p), a_bc.percentile(p));
    EXPECT_NEAR(ab_c.mean(), a_bc.mean(), 1e-15);
}

// ------------------------------------------- confidence intervals

TEST(Confidence, NormalQuantileMatchesTables)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normalQuantile(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(normalQuantile(0.995), 2.575829, 1e-5);
    EXPECT_NEAR(normalQuantile(0.025), -1.959964, 1e-5);
    EXPECT_NEAR(normalQuantile(0.9999), 3.719016, 1e-4);
    EXPECT_THROW(normalQuantile(0.0), std::invalid_argument);
    EXPECT_THROW(normalQuantile(1.0), std::invalid_argument);
}

TEST(Confidence, TQuantileMatchesTables)
{
    // Standard two-sided 95% critical values t_{0.975, dof}.
    EXPECT_NEAR(tQuantile(0.975, 1), 12.7062, 1e-3);
    EXPECT_NEAR(tQuantile(0.975, 2), 4.30265, 1e-4);
    EXPECT_NEAR(tQuantile(0.975, 5), 2.57058, 2e-3);
    EXPECT_NEAR(tQuantile(0.975, 10), 2.22814, 1e-3);
    EXPECT_NEAR(tQuantile(0.975, 30), 2.04227, 1e-3);
    // Converges to the normal quantile for large dof.
    EXPECT_NEAR(tQuantile(0.975, 10000), normalQuantile(0.975), 1e-3);
    // Symmetry.
    EXPECT_NEAR(tQuantile(0.1, 7), -tQuantile(0.9, 7), 1e-9);
    EXPECT_THROW(tQuantile(0.975, 0), std::invalid_argument);
}

TEST(Confidence, MeanIntervalMatchesHandComputation)
{
    Summary summary;
    for (double v : {4.0, 6.0, 8.0, 10.0})
        summary.add(v);
    // mean 7, sd sqrt(20/3), n 4, t_{0.975,3} = 3.18245.  The Hill
    // t-quantile expansion is good to ~0.2% at dof=3, so allow a
    // proportional tolerance rather than an absolute epsilon.
    const ConfidenceInterval ci =
        meanConfidenceInterval(summary, 0.95);
    EXPECT_TRUE(ci.valid());
    EXPECT_DOUBLE_EQ(ci.mean, 7.0);
    const double expected_hw =
        3.18245 * std::sqrt(20.0 / 3.0) / 2.0;
    EXPECT_NEAR(ci.halfWidth, expected_hw, 0.003 * expected_hw);
    EXPECT_NEAR(ci.lo(), 7.0 - expected_hw, 0.003 * expected_hw);
    EXPECT_NEAR(ci.hi(), 7.0 + expected_hw, 0.003 * expected_hw);
}

TEST(Confidence, DegenerateCountsAreInvalid)
{
    Summary empty;
    EXPECT_FALSE(meanConfidenceInterval(empty).valid());
    Summary one;
    one.add(3.0);
    const ConfidenceInterval ci = meanConfidenceInterval(one);
    EXPECT_FALSE(ci.valid());
    EXPECT_DOUBLE_EQ(ci.mean, 3.0);
    EXPECT_DOUBLE_EQ(ci.halfWidth, 0.0);
    EXPECT_THROW(meanConfidenceInterval(one, 1.5),
                 std::invalid_argument);
}

TEST(Confidence, IntervalCoversTrueMean)
{
    // Frequentist sanity: across many replications of a known
    // process, the 95% interval should cover the true mean roughly
    // 95% of the time (allow a wide band; 400 trials).
    random::Rng rng(41);
    int covered = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        Summary summary;
        for (int i = 0; i < 10; ++i)
            summary.add(rng.nextGaussian() * 2.0 + 5.0);
        const ConfidenceInterval ci =
            meanConfidenceInterval(summary, 0.95);
        if (ci.lo() <= 5.0 && 5.0 <= ci.hi())
            ++covered;
    }
    const double coverage = static_cast<double>(covered) / trials;
    EXPECT_GT(coverage, 0.90);
    EXPECT_LT(coverage, 0.99);
}

TEST(Confidence, DescribeRendersInterval)
{
    Summary summary;
    summary.add(1.0);
    summary.add(3.0);
    const std::string text =
        meanConfidenceInterval(summary, 0.95).describe();
    EXPECT_NE(text.find("±"), std::string::npos);
    EXPECT_NE(text.find("95% CI"), std::string::npos);
    EXPECT_NE(text.find("n=2"), std::string::npos);
}

}  // namespace
}  // namespace stats
}  // namespace uqsim
