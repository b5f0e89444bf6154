// Per-node wavelength-conversion capability and cost — the paper's switch
// converter with cost factors c_v(λp, λq). The table accommodates the general
// case where conversion capability and cost depend on the node and on both
// wavelengths; c_v(λ, λ) is identically 0 and always allowed (no switching).
//
// Tables made by a factory (full, none, limited_range) carry a shape tag
// and hold no W×W matrix: allowed() and cost() are closed forms of the tag,
// and callers replace W²-pair scans with closed forms too (the mean cost
// between two wavelength sets is O(1) word operations for full and none and
// O(range) for limited-range tables, and the Liang–Shen solver skips
// conversion arcs that cannot shorten a distance). The first set() or
// forbid() builds the matrix from the tag, so every untouched pair answers
// as before, and makes the table general; general tables keep the scans.
// Const methods never build it, so concurrent readers stay safe.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "support/check.hpp"
#include "wdm/wavelength.hpp"

namespace wdm::net {

class ConversionTable {
 public:
  enum class Shape : std::uint8_t {
    kNone,          // identity only
    kFull,          // every pair allowed, uniform_cost() each
    kLimitedRange,  // |p - q| <= range(), uniform_cost() per step
    kGeneral,       // anything else: read allowed() / cost()
  };

  /// Identity-only table: no conversion capability (λ -> λ only).
  explicit ConversionTable(int num_wavelengths);

  /// Full conversion: any λp -> λq allowed at `uniform_cost` (0 on identity).
  /// This is the paper's assumption (i) in §3.3.
  static ConversionTable full(int num_wavelengths, double uniform_cost);

  /// No conversion at all (alias of the identity-only constructor, for
  /// readability at call sites modeling the Lemma 1 special case).
  static ConversionTable none(int num_wavelengths);

  /// Limited-range conversion: λp -> λq allowed iff |p - q| <= range, cost
  /// `cost_per_step * |p - q|` — models shared-per-node converter pools with
  /// bounded tuning range.
  static ConversionTable limited_range(int num_wavelengths, int range,
                                       double cost_per_step);

  int num_wavelengths() const { return w_; }

  Shape shape() const { return shape_; }
  /// Per-conversion cost of a kFull table, per-step cost of a kLimitedRange
  /// table (0 otherwise).
  double uniform_cost() const { return uniform_cost_; }
  /// Tuning range of a kLimitedRange table (0 otherwise).
  int range() const { return range_; }

  /// Allows a conversion and sets its cost. Identity entries are fixed
  /// (allowed, cost 0) and must not be overridden with a nonzero cost.
  /// The table becomes kGeneral.
  void set(Wavelength from, Wavelength to, double cost);

  /// The table becomes kGeneral.
  void forbid(Wavelength from, Wavelength to);

  bool allowed(Wavelength from, Wavelength to) const {
    if (from == to) return true;
    WDM_DCHECK(valid(from) && valid(to));
    switch (shape_) {
      case Shape::kNone:
        return false;
      case Shape::kFull:
        return true;
      case Shape::kLimitedRange:
        return std::abs(from - to) <= range_;
      case Shape::kGeneral:
        break;
    }
    return allowed_general(from, to);
  }

  /// Requires allowed(from, to).
  double cost(Wavelength from, Wavelength to) const {
    if (from == to) return 0.0;
    WDM_CHECK_MSG(allowed(from, to), "conversion not allowed at this node");
    switch (shape_) {
      case Shape::kFull:
        return uniform_cost_;
      case Shape::kLimitedRange:
        return cost_in_range(from, to);
      case Shape::kNone:  // no pair but the identity passes the check
      case Shape::kGeneral:
        break;
    }
    return cost_general(from, to);
  }

  // Shape-specific reads for loops that have already switched on shape():
  // the same answers as allowed() / cost() without the switch.

  /// cost(from, to) of a kLimitedRange table, for |from - to| <= range().
  double cost_in_range(Wavelength from, Wavelength to) const {
    WDM_DCHECK(shape_ == Shape::kLimitedRange && valid(from) && valid(to));
    return from == to ? 0.0 : uniform_cost_ * std::abs(from - to);
  }
  /// allowed(from, to) of a kGeneral table.
  bool allowed_general(Wavelength from, Wavelength to) const {
    WDM_DCHECK(shape_ == Shape::kGeneral);
    return allowed_[index(from, to)] != 0;
  }
  /// cost(from, to) of a kGeneral table; requires allowed(from, to).
  double cost_general(Wavelength from, Wavelength to) const {
    WDM_DCHECK(shape_ == Shape::kGeneral);
    return cost_[index(from, to)];
  }

  /// True when every pair is allowed.
  bool is_full() const;

  /// Maximum conversion cost over allowed non-identity pairs (0 if none) —
  /// used to check the Theorem 2 assumption.
  double max_cost() const;

  /// Mean cost over the allowed pairs (a, b) ∈ from_set × to_set, written
  /// to *mean (if non-null); false, leaving *mean alone, when no pair is
  /// allowed. Closed form for tagged tables: bit-equal to mean_cost_scan
  /// when uniform_cost() is dyadic (e.g. 0.5), within 1e-12 relative
  /// otherwise (the scan rounds once per pair, the closed form once).
  bool mean_cost(WavelengthSet from_set, WavelengthSet to_set,
                 double* mean) const;

  /// mean_cost by summing every allowed pair in ascending (a, b) order —
  /// the general-table path and the closed forms' test oracle.
  bool mean_cost_scan(WavelengthSet from_set, WavelengthSet to_set,
                      double* mean) const;

  /// Wavelengths in `to_set` reachable from some wavelength in `from_set`.
  WavelengthSet reachable(WavelengthSet from_set, WavelengthSet to_set) const;

 private:
  bool valid(Wavelength l) const { return l >= 0 && l < w_; }

  std::size_t index(Wavelength a, Wavelength b) const {
    WDM_DCHECK(valid(a) && valid(b));
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(w_) +
           static_cast<std::size_t>(b);
  }

  /// Builds the W×W matrix from the tag (a no-op on a kGeneral table) and
  /// tags the table kGeneral.
  void make_general();

  int w_;
  Shape shape_ = Shape::kNone;
  double uniform_cost_ = 0.0;
  int range_ = 0;
  // W×W, row per `from`, kGeneral tables only (empty while tagged). The
  // diagonal is stored allowed at cost 0, so allowed_general() and
  // cost_general() need no identity test.
  std::vector<double> cost_;
  std::vector<std::uint8_t> allowed_;
};

}  // namespace wdm::net
