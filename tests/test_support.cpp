#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace wdm::support {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double s = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) s += r.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(13);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const auto v = r.uniform_int(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++counts[static_cast<std::size_t>(v - 2)];
  }
  for (int c : counts) EXPECT_GT(c, 9000);  // ~10000 each, loose bound
}

TEST(Rng, UniformIntSingleton) {
  Rng r(17);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng r(1);
  EXPECT_THROW(r.uniform_int(3, 2), std::logic_error);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(19);
  double s = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) s += r.exponential(4.0);
  EXPECT_NEAR(s / n, 0.25, 0.01);
}

TEST(Rng, ExponentialRequiresPositiveRate) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), std::logic_error);
}

TEST(Rng, PoissonMeanMatches) {
  Rng r(23);
  long s = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += r.poisson(3.0);
  EXPECT_NEAR(static_cast<double>(s) / n, 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(31);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  r.shuffle(std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng a(41);
  Rng b = a.split();
  // The split stream should not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesConcatenation) {
  Rng r(43);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(0, 10);
    if (i % 3 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.5);
}

TEST(Percentile, DegenerateInputsAreWellDefined) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile(empty, 1.0), 0.0);
  std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 1.0), 42.0);
}

TEST(Percentile, StillRejectsBadQuantile) {
  std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(percentile(xs, -0.1), std::logic_error);
  EXPECT_THROW(percentile(xs, 1.1), std::logic_error);
}

TEST(Percentile, SortedOverloadEqualsCopyingVersion) {
  support::Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 257; ++i) xs.push_back(rng.uniform(-50.0, 50.0));
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, q), percentile(xs, q)) << q;
  }
  // Degenerate inputs follow the same contract.
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  const std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 0.5), 42.0);
}

TEST(Percentile, BatchMatchesPerQuantileCalls) {
  support::Rng rng(32);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.uniform(0.0, 1000.0));
  const std::vector<double> qs{0.5, 0.9, 0.99, 0.0, 1.0};
  const std::vector<double> batch = percentiles(xs, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(xs, qs[i])) << "q=" << qs[i];
  }
  EXPECT_TRUE(percentiles(xs, {}).empty());
  EXPECT_EQ(percentiles({}, qs), std::vector<double>(qs.size(), 0.0));
}

TEST(RunningStats, MinMaxWellDefinedAtZeroCount) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  // A negative first sample must override the count-0 placeholder.
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(TextTable, AlignsAndRoundTrips) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 2)});
  t.add_row({"beta", TextTable::integer(42)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("beta,42"), std::string::npos);
}

TEST(TextTable, RejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  bool touched = false;
  parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RethrowsBodyExceptionOnCallingThread) {
  // Letting an exception escape an OpenMP region is std::terminate; the
  // helper must capture it inside the region and rethrow it here.
  EXPECT_THROW(
      parallel_for(64,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionSkipsRemainingWorkButKeepsDoneWork) {
  // Iterations already completed when the exception lands stay completed;
  // the loop must not rerun or lose them.
  std::atomic<int> done{0};
  try {
    parallel_for(256, [&](std::size_t i) {
      if (i == 0) throw std::logic_error("first");
      ++done;
    });
    FAIL() << "expected the body exception to propagate";
  } catch (const std::logic_error&) {
  }
  EXPECT_GE(done.load(), 0);
  EXPECT_LE(done.load(), 255);
}

TEST(Stopwatch, MonotoneAndResettable) {
  Stopwatch sw;
  const double t1 = sw.elapsed_seconds();
  const double t2 = sw.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.reset();
  EXPECT_GE(sw.elapsed_ms(), 0.0);
  // Unit consistency: microseconds = 1000 x milliseconds (sampled closely
  // enough that the drift between the two reads is far under the ratio).
  const double ms = sw.elapsed_ms();
  const double us = sw.elapsed_us();
  EXPECT_GE(us, ms * 1000.0 * 0.99);
}

TEST(Ci95, ShrinksWithSamples) {
  Rng r(47);
  RunningStats small, big;
  for (int i = 0; i < 10; ++i) small.add(r.uniform());
  for (int i = 0; i < 1000; ++i) big.add(r.uniform());
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(big));
}

// ---------------------------------------------------------------------------
// telemetry::LatencyHistogram::percentile_ns — the documented estimation
// error contract for power-of-two-ns buckets. The estimator has upper-bound
// semantics: it returns the smallest bucket upper bound covering
// ceil(q * count) samples, clamped to the observed maximum, so
//   true quantile <= percentile_ns(q) <= 2 * true quantile (quantile > 0,
//   equality on the right only when the true quantile is a power of two)
// and percentile_ns(q) <= max_ns() always.

TEST(TelemetryHistogram, PercentileExactOnBucketBoundaries) {
  telemetry::LatencyHistogram h;
  // 100 samples of exactly 1024 ns: every quantile is 1024, and 1024 is a
  // bucket lower bound, so the upper-bound estimate lands on the next power
  // of two... except the max clamp pins it back to the exact value.
  for (int i = 0; i < 100; ++i) h.record_ns(1024);
  EXPECT_EQ(h.percentile_ns(0.5), 1024u);
  EXPECT_EQ(h.percentile_ns(0.99), 1024u);
  EXPECT_EQ(h.percentile_ns(1.0), 1024u);
}

TEST(TelemetryHistogram, PercentileUpperBoundWithinFactorTwo) {
  telemetry::LatencyHistogram h;
  Rng r(13);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::uint64_t>(r.uniform_int(1, 1000000));
    samples.push_back(v);
    h.record_ns(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t est = h.percentile_ns(q);
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(est, 2 * exact) << "q=" << q;
    EXPECT_LE(est, h.max_ns()) << "q=" << q;
  }
}

TEST(TelemetryHistogram, PercentileEdgeCases) {
  telemetry::LatencyHistogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0u);  // empty
  h.record_ns(0);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);  // all-zero samples are exact
  h.record_ns(7);
  // q is clamped to [0, 1]; q = 0 still covers >= 1 sample.
  EXPECT_EQ(h.percentile_ns(-1.0), h.percentile_ns(0.0));
  EXPECT_EQ(h.percentile_ns(2.0), h.percentile_ns(1.0));
  // The saturating last bucket reports the exact observed maximum rather
  // than its 2^63 upper bound.
  h.record_ns(~std::uint64_t{0});
  EXPECT_EQ(h.percentile_ns(1.0), ~std::uint64_t{0});
}

}  // namespace
}  // namespace wdm::support
