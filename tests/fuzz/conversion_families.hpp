// The conversion-table families the ϑ fuzz differentials sweep: the
// generator's per-node mix, full, none, limited-range r = 1, 2, 4, and
// general tables (full with about half the conversions forbidden).
#pragma once

#include <utility>

#include "support/rng.hpp"
#include "wdm/network.hpp"

namespace wdm::fuzz {

inline constexpr int kConversionKinds = 7;

/// Overrides every node's conversion table with family `kind` (0 keeps the
/// generator's mix; 1 full; 2 none; 3, 4, 5 limited-range r = 1, 2, 4;
/// 6 general), drawing costs from `rng`.
inline void set_conversion_family(net::WdmNetwork& net, int kind,
                                  support::Rng& rng) {
  const int W = net.W();
  if (kind == 0) return;
  for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
    const double c = rng.uniform(0.0, 2.0);
    switch (kind) {
      case 1:
        net.set_conversion(v, net::ConversionTable::full(W, c));
        break;
      case 2:
        net.set_conversion(v, net::ConversionTable::none(W));
        break;
      case 3:
      case 4:
      case 5:
        net.set_conversion(v, net::ConversionTable::limited_range(
                                  W, 1 << (kind - 3), c));
        break;
      default: {
        net::ConversionTable table = net::ConversionTable::full(W, c);
        for (net::Wavelength a = 0; a < W; ++a) {
          for (net::Wavelength b = 0; b < W; ++b) {
            if (a != b && rng.bernoulli(0.5)) table.forbid(a, b);
          }
        }
        net.set_conversion(v, std::move(table));
        break;
      }
    }
  }
}

}  // namespace wdm::fuzz
