#include "wdm/conversion.hpp"

#include <algorithm>

namespace wdm::net {

ConversionTable::ConversionTable(int num_wavelengths) : w_(num_wavelengths) {
  WDM_CHECK(num_wavelengths > 0 &&
            num_wavelengths <= WavelengthSet::kMaxWavelengths);
}

ConversionTable ConversionTable::full(int num_wavelengths,
                                      double uniform_cost) {
  WDM_CHECK(uniform_cost >= 0.0);
  ConversionTable t(num_wavelengths);
  t.shape_ = Shape::kFull;
  t.uniform_cost_ = uniform_cost;
  return t;
}

ConversionTable ConversionTable::none(int num_wavelengths) {
  return ConversionTable(num_wavelengths);
}

ConversionTable ConversionTable::limited_range(int num_wavelengths, int range,
                                               double cost_per_step) {
  WDM_CHECK(range >= 0);
  WDM_CHECK(cost_per_step >= 0.0);
  ConversionTable t(num_wavelengths);
  t.shape_ = Shape::kLimitedRange;
  t.uniform_cost_ = cost_per_step;
  t.range_ = range;
  return t;
}

void ConversionTable::make_general() {
  if (shape_ == Shape::kGeneral) return;
  const std::size_t n =
      static_cast<std::size_t>(w_) * static_cast<std::size_t>(w_);
  cost_.assign(n, 0.0);
  allowed_.assign(n, 0);
  // Entry by entry from the closed forms, so the general table answers
  // every pair bit for bit as the tagged one did.
  for (Wavelength a = 0; a < w_; ++a) {
    for (Wavelength b = 0; b < w_; ++b) {
      if (!allowed(a, b)) continue;
      allowed_[index(a, b)] = 1;
      cost_[index(a, b)] = cost(a, b);
    }
  }
  shape_ = Shape::kGeneral;
  uniform_cost_ = 0.0;
  range_ = 0;
}

void ConversionTable::set(Wavelength from, Wavelength to, double cost) {
  WDM_CHECK(valid(from) && valid(to));
  WDM_CHECK(cost >= 0.0);
  WDM_CHECK_MSG(from != to || cost == 0.0,
                "identity conversion cost is fixed at 0 (paper: c_v(λ,λ)=0)");
  make_general();
  if (from == to) return;
  allowed_[index(from, to)] = 1;
  cost_[index(from, to)] = cost;
}

void ConversionTable::forbid(Wavelength from, Wavelength to) {
  WDM_CHECK(valid(from) && valid(to));
  WDM_CHECK_MSG(from != to, "identity conversion cannot be forbidden");
  make_general();
  allowed_[index(from, to)] = 0;
}

bool ConversionTable::is_full() const {
  switch (shape_) {
    case Shape::kNone:
      return w_ == 1;
    case Shape::kFull:
      return true;
    case Shape::kLimitedRange:
      return range_ >= w_ - 1;
    case Shape::kGeneral:
      break;
  }
  return std::all_of(allowed_.begin(), allowed_.end(),
                     [](std::uint8_t a) { return a != 0; });
}

double ConversionTable::max_cost() const {
  // std::max(0.0, ·) as the scan starts: a -0.0 cost reads +0.0.
  switch (shape_) {
    case Shape::kNone:
      return 0.0;
    case Shape::kFull:
      return w_ > 1 ? std::max(0.0, uniform_cost_) : 0.0;
    case Shape::kLimitedRange: {
      // c·d is nondecreasing in d for c >= 0, so the widest step is the max.
      const int d = std::min(range_, w_ - 1);
      return d > 0 ? std::max(0.0, cost_in_range(0, d)) : 0.0;
    }
    case Shape::kGeneral:
      break;
  }
  // The diagonal's 0 cannot raise m.
  double m = 0.0;
  for (std::size_t i = 0; i < cost_.size(); ++i) {
    if (allowed_[i] != 0) m = std::max(m, cost_[i]);
  }
  return m;
}

bool ConversionTable::mean_cost(WavelengthSet from_set, WavelengthSet to_set,
                                double* mean) const {
  const std::uint64_t a = from_set.bits();
  const std::uint64_t b = to_set.bits();
  // Pairs at distance d = |p - q|: p ∈ A with p + d ∈ B are the bits of
  // A & (B >> d), those with p - d ∈ B the bits of A & (B << d).
  std::int64_t pairs = 0;
  std::int64_t steps = 0;  // Σ |p - q| over allowed pairs (limited range)
  switch (shape_) {
    case Shape::kNone:
      pairs = popcount64(a & b);
      break;
    case Shape::kFull:
      pairs = std::int64_t{from_set.count()} * to_set.count();
      steps = pairs - popcount64(a & b);  // the converting pairs
      break;
    case Shape::kLimitedRange: {
      pairs = popcount64(a & b);
      const int r = std::min(range_, w_ - 1);
      for (int d = 1; d <= r; ++d) {
        const int at_d = popcount64(a & (b >> d)) + popcount64(a & (b << d));
        pairs += at_d;
        steps += std::int64_t{d} * at_d;
      }
      break;
    }
    case Shape::kGeneral:
      return mean_cost_scan(from_set, to_set, mean);
  }
  if (pairs == 0) return false;
  // Same operation order as the scan's sum / pairs; with a dyadic cost the
  // scan's sum is exactly uniform_cost_ * steps.
  if (mean != nullptr) {
    *mean = uniform_cost_ * static_cast<double>(steps) /
            static_cast<double>(pairs);
  }
  return true;
}

bool ConversionTable::mean_cost_scan(WavelengthSet from_set,
                                     WavelengthSet to_set,
                                     double* mean) const {
  double sum = 0.0;
  int pairs = 0;
  from_set.for_each([&](Wavelength a) {
    to_set.for_each([&](Wavelength b) {
      if (allowed(a, b)) {
        sum += cost(a, b);
        ++pairs;
      }
    });
  });
  if (pairs == 0) return false;
  if (mean != nullptr) *mean = sum / pairs;
  return true;
}

WavelengthSet ConversionTable::reachable(WavelengthSet from_set,
                                         WavelengthSet to_set) const {
  WavelengthSet out;
  to_set.for_each([&](Wavelength b) {
    bool ok = false;
    from_set.for_each([&](Wavelength a) {
      if (!ok && allowed(a, b)) ok = true;
    });
    if (ok) out.insert(b);
  });
  return out;
}

}  // namespace wdm::net
