// Wavelength identifiers and sets.
//
// A wavelength is an index into the network's wavelength universe
// Λ = {λ_0, ..., λ_{W-1}}. A WavelengthSet is a 64-bit mask — wide-area WDM
// systems of the paper's era carried 4–32 channels per fiber, and every
// per-link set operation in the routing algorithms (Λ(e), Λ_avail(e),
// intersections for conversion-free hops) becomes one or two word ops.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace wdm::net {

using Wavelength = int;
inline constexpr Wavelength kInvalidWavelength = -1;

/// Number of set bits in `x`. With POPCNT in the target ISA this is one
/// instruction; otherwise an inline SWAR count, because the builtin would
/// compile to a call into libgcc (__popcountdi2) on every set operation.
inline int popcount64(std::uint64_t x) {
#if defined(__POPCNT__)
  return __builtin_popcountll(x);
#else
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
#endif
}

class WavelengthSet {
 public:
  static constexpr int kMaxWavelengths = 64;

  constexpr WavelengthSet() = default;

  /// {λ_0, ..., λ_{count-1}}.
  static WavelengthSet all(int count) {
    WDM_CHECK(count >= 0 && count <= kMaxWavelengths);
    WavelengthSet s;
    s.bits_ = (count == 64) ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << count) - 1);
    return s;
  }

  static WavelengthSet single(Wavelength l) {
    WavelengthSet s;
    s.insert(l);
    return s;
  }

  static WavelengthSet from_bits(std::uint64_t bits) {
    WavelengthSet s;
    s.bits_ = bits;
    return s;
  }

  bool contains(Wavelength l) const {
    WDM_DCHECK(valid(l));
    return (bits_ >> l) & 1u;
  }

  void insert(Wavelength l) {
    WDM_CHECK(valid(l));
    bits_ |= std::uint64_t{1} << l;
  }

  void erase(Wavelength l) {
    WDM_CHECK(valid(l));
    bits_ &= ~(std::uint64_t{1} << l);
  }

  int count() const { return popcount64(bits_); }
  bool empty() const { return bits_ == 0; }
  std::uint64_t bits() const { return bits_; }

  /// Smallest wavelength in the set, or kInvalidWavelength when empty —
  /// the "first fit" rule of classic wavelength-assignment heuristics.
  Wavelength lowest() const {
    return empty() ? kInvalidWavelength : __builtin_ctzll(bits_);
  }

  WavelengthSet intersect(WavelengthSet o) const {
    return from_bits(bits_ & o.bits_);
  }
  WavelengthSet minus(WavelengthSet o) const {
    return from_bits(bits_ & ~o.bits_);
  }

  template <typename F>
  void for_each(F&& f) const {
    std::uint64_t b = bits_;
    while (b) {
      const Wavelength l = __builtin_ctzll(b);
      f(l);
      b &= b - 1;
    }
  }

  std::vector<Wavelength> to_vector() const {
    std::vector<Wavelength> v;
    v.reserve(static_cast<std::size_t>(count()));
    for_each([&](Wavelength l) { v.push_back(l); });
    return v;
  }

  friend bool operator==(WavelengthSet a, WavelengthSet b) {
    return a.bits_ == b.bits_;
  }

 private:
  static bool valid(Wavelength l) { return l >= 0 && l < kMaxWavelengths; }

  std::uint64_t bits_ = 0;
};

}  // namespace wdm::net
