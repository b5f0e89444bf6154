#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace wdm::support {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ ? min_ : 0.0; }

double RunningStats::max() const { return n_ ? max_ : 0.0; }

double percentile_sorted(std::span<const double> sorted, double q) {
  WDM_CHECK(q >= 0.0 && q <= 1.0);
  WDM_DCHECK(std::is_sorted(sorted.begin(), sorted.end()));
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::span<const double> xs, double q) {
  WDM_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

std::vector<double> percentiles(std::span<const double> xs,
                                std::span<const double> qs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(percentile_sorted(v, q));
  return out;
}

double mean_of(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double ci95_halfwidth(const RunningStats& s) {
  if (s.count() < 2) return 0.0;
  return 1.96 * s.stddev() / std::sqrt(static_cast<double>(s.count()));
}

}  // namespace wdm::support
