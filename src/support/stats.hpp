// Small statistics helpers used by tests, benches, and the simulator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wdm::support {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Smallest/largest sample; both are 0.0 at count() == 0 (check count()
  /// before treating them as observed values).
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample (linear interpolation); `q` in [0, 1].
/// Degenerate inputs are well-defined: 0.0 for an empty sample, the sample
/// itself for a single point. Copies and sorts; intended for end-of-run
/// reporting, not hot paths.
double percentile(std::span<const double> xs, double q);

/// percentile() over a span the caller has already sorted ascending —
/// no copy, no allocation. Same interpolation and degenerate-input
/// contract; the precondition is checked in debug builds only.
double percentile_sorted(std::span<const double> sorted, double q);

/// Batch evaluation: sorts the sample once and returns one percentile per
/// entry of `qs` (each in [0, 1], any order). Equivalent to calling
/// percentile() per q but with a single sort, which is what the scale
/// benches want when reporting p50/p90/p99 ladders over large latency sets.
std::vector<double> percentiles(std::span<const double> xs,
                                std::span<const double> qs);

double mean_of(std::span<const double> xs);

/// Half-width of the 95% normal-approximation confidence interval.
/// 0 when fewer than two samples (no spread estimate exists).
double ci95_halfwidth(const RunningStats& s);

}  // namespace wdm::support
