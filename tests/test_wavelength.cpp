#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <ios>
#include <limits>
#include <vector>

#include "support/rng.hpp"
#include "wdm/conversion.hpp"
#include "wdm/wavelength.hpp"

namespace wdm::net {
namespace {

TEST(WavelengthSet, EmptyByDefault) {
  WavelengthSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.lowest(), kInvalidWavelength);
}

TEST(WavelengthSet, AllCount) {
  EXPECT_EQ(WavelengthSet::all(0).count(), 0);
  EXPECT_EQ(WavelengthSet::all(5).count(), 5);
  EXPECT_EQ(WavelengthSet::all(64).count(), 64);
}

TEST(WavelengthSet, InsertEraseContains) {
  WavelengthSet s;
  s.insert(3);
  s.insert(7);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.count(), 2);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.count(), 1);
}

TEST(WavelengthSet, LowestIsFirstFit) {
  WavelengthSet s;
  s.insert(9);
  s.insert(4);
  s.insert(30);
  EXPECT_EQ(s.lowest(), 4);
}

TEST(WavelengthSet, SetAlgebra) {
  WavelengthSet a = WavelengthSet::all(4);       // {0,1,2,3}
  WavelengthSet b;
  b.insert(2);
  b.insert(3);
  b.insert(5);
  EXPECT_EQ(a.intersect(b).count(), 2);
  EXPECT_EQ(a.minus(b).count(), 2);
  EXPECT_TRUE(a.minus(a).empty());
}

TEST(WavelengthSet, ForEachVisitsAscending) {
  WavelengthSet s;
  s.insert(10);
  s.insert(2);
  s.insert(33);
  std::vector<Wavelength> seen;
  s.for_each([&](Wavelength l) { seen.push_back(l); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 2);
  EXPECT_EQ(seen[1], 10);
  EXPECT_EQ(seen[2], 33);
  EXPECT_EQ(s.to_vector(), seen);
}

TEST(Popcount64, MatchesBitByBitCount) {
  auto slow = [](std::uint64_t x) {
    int n = 0;
    for (int b = 0; b < 64; ++b) n += static_cast<int>((x >> b) & 1u);
    return n;
  };
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(~std::uint64_t{0}), 64);
  for (int b = 0; b < 64; ++b) {
    EXPECT_EQ(popcount64(std::uint64_t{1} << b), 1) << "bit " << b;
  }
  support::Rng rng(0xb175);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng();
    ASSERT_EQ(popcount64(x), slow(x)) << std::hex << x;
  }
}

TEST(WavelengthSet, BoundsChecked) {
  WavelengthSet s;
  EXPECT_THROW(s.insert(64), std::logic_error);
  EXPECT_THROW(s.insert(-1), std::logic_error);
}

TEST(WavelengthSet, SingleAndEquality) {
  EXPECT_EQ(WavelengthSet::single(5), WavelengthSet::from_bits(1ull << 5));
  EXPECT_FALSE(WavelengthSet::single(5) == WavelengthSet::single(6));
}

TEST(ConversionTable, IdentityAlwaysAllowedAndFree) {
  ConversionTable t(4);
  for (Wavelength l = 0; l < 4; ++l) {
    EXPECT_TRUE(t.allowed(l, l));
    EXPECT_DOUBLE_EQ(t.cost(l, l), 0.0);
  }
  EXPECT_FALSE(t.allowed(0, 1));
}

TEST(ConversionTable, FullAllowsEverything) {
  const ConversionTable t = ConversionTable::full(3, 0.5);
  EXPECT_TRUE(t.is_full());
  EXPECT_DOUBLE_EQ(t.cost(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(t.cost(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.max_cost(), 0.5);
}

TEST(ConversionTable, NoneIsIdentityOnly) {
  const ConversionTable t = ConversionTable::none(3);
  EXPECT_FALSE(t.is_full());
  EXPECT_DOUBLE_EQ(t.max_cost(), 0.0);
}

TEST(ConversionTable, LimitedRange) {
  const ConversionTable t = ConversionTable::limited_range(8, 2, 0.25);
  EXPECT_TRUE(t.allowed(3, 5));
  EXPECT_FALSE(t.allowed(3, 6));
  EXPECT_DOUBLE_EQ(t.cost(3, 5), 0.5);
  EXPECT_DOUBLE_EQ(t.cost(3, 4), 0.25);
}

TEST(ConversionTable, FactoriesEqualPairByPairSet) {
  // full() and limited_range() fill their tables directly; every entry must
  // equal the table built through set() one pair at a time.
  auto expect_same = [](const ConversionTable& got,
                        const ConversionTable& want) {
    const int w = want.num_wavelengths();
    ASSERT_EQ(got.num_wavelengths(), w);
    for (Wavelength a = 0; a < w; ++a) {
      for (Wavelength b = 0; b < w; ++b) {
        ASSERT_EQ(got.allowed(a, b), want.allowed(a, b)) << a << "->" << b;
        if (want.allowed(a, b)) {
          ASSERT_EQ(got.cost(a, b), want.cost(a, b)) << a << "->" << b;
        }
      }
    }
  };
  constexpr double kCost = 0.3;  // not dyadic: products must match exactly
  for (const int w : {1, 2, 16, 64}) {
    ConversionTable full_ref(w);
    for (Wavelength a = 0; a < w; ++a) {
      for (Wavelength b = 0; b < w; ++b) {
        if (a != b) full_ref.set(a, b, kCost);
      }
    }
    const ConversionTable full = ConversionTable::full(w, kCost);
    EXPECT_EQ(full.shape(), ConversionTable::Shape::kFull);
    expect_same(full, full_ref);
    for (const int r : {0, 1, 2, w}) {
      ConversionTable ref(w);
      for (Wavelength a = 0; a < w; ++a) {
        for (Wavelength b = 0; b < w; ++b) {
          if (a != b && std::abs(a - b) <= r) {
            ref.set(a, b, kCost * std::abs(a - b));
          }
        }
      }
      const ConversionTable lim = ConversionTable::limited_range(w, r, kCost);
      EXPECT_EQ(lim.shape(), ConversionTable::Shape::kLimitedRange);
      EXPECT_EQ(lim.range(), r);
      expect_same(lim, ref);
    }
  }
}

/// Every factory shape at W, with a non-dyadic cost so that the products
/// of limited-range steps are not trivially exact.
std::vector<ConversionTable> factory_tables(int w, double cost) {
  std::vector<ConversionTable> out = {ConversionTable::none(w),
                                      ConversionTable::full(w, cost)};
  for (const int r : {0, 1, 2, w}) {
    out.push_back(ConversionTable::limited_range(w, r, cost));
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `got` answers allowed()/cost() bit for bit as `want` on every pair but
/// (skip_a, skip_b).
void expect_same_except(const ConversionTable& got, const ConversionTable& want,
                        Wavelength skip_a, Wavelength skip_b) {
  const int w = want.num_wavelengths();
  for (Wavelength a = 0; a < w; ++a) {
    for (Wavelength b = 0; b < w; ++b) {
      if (a == skip_a && b == skip_b) continue;
      ASSERT_EQ(got.allowed(a, b), want.allowed(a, b)) << a << "->" << b;
      if (want.allowed(a, b)) {
        ASSERT_TRUE(same_bits(got.cost(a, b), want.cost(a, b)))
            << a << "->" << b;
      }
    }
  }
}

TEST(ConversionTable, OneMutationTurnsGeneralAndKeepsEveryOtherPair) {
  for (const int w : {1, 16, 64}) {
    for (const ConversionTable& tagged : factory_tables(w, 0.3)) {
      SCOPED_TRACE(::testing::Message()
                   << "W=" << w << " shape=" << static_cast<int>(tagged.shape())
                   << " range=" << tagged.range());
      ASSERT_NE(tagged.shape(), ConversionTable::Shape::kGeneral);
      // One set() on the last off-diagonal pair; at W = 1 the only pair is
      // the identity, whose set(·, ·, 0) changes nothing but the tag.
      const Wavelength a = 0;
      const Wavelength b = w - 1;
      const double c = a == b ? 0.0 : 0.7;
      ConversionTable set = tagged;
      set.set(a, b, c);
      EXPECT_EQ(set.shape(), ConversionTable::Shape::kGeneral);
      EXPECT_TRUE(set.allowed(a, b));
      EXPECT_EQ(set.cost(a, b), c);
      expect_same_except(set, tagged, a, b);
      if (w == 1) {
        // No non-identity pair to forbid, and the identity cannot be.
        ConversionTable forbid = tagged;
        EXPECT_THROW(forbid.forbid(0, 0), std::logic_error);
        continue;
      }
      ConversionTable forbid = tagged;
      forbid.forbid(b, a);
      EXPECT_EQ(forbid.shape(), ConversionTable::Shape::kGeneral);
      EXPECT_FALSE(forbid.allowed(b, a));
      EXPECT_THROW(forbid.cost(b, a), std::logic_error);
      expect_same_except(forbid, tagged, b, a);
    }
  }
}

TEST(ConversionTable, TaggedMaxCostAndIsFullEqualTheMaterializedTable) {
  // set(λ, λ, 0) changes no pair but makes the table general, so it
  // answers from the matrix built from the tag.
  for (const int w : {1, 2, 16, 64}) {
    for (const double c :
         {0.0, -0.0, 0.3, 2.5, std::numeric_limits<double>::infinity()}) {
      for (const ConversionTable& tagged : factory_tables(w, c)) {
        SCOPED_TRACE(::testing::Message()
                     << "W=" << w << " c=" << c << " shape="
                     << static_cast<int>(tagged.shape())
                     << " range=" << tagged.range());
        ConversionTable general = tagged;
        general.set(0, 0, 0.0);
        ASSERT_EQ(general.shape(), ConversionTable::Shape::kGeneral);
        expect_same_except(general, tagged, -1, -1);
        EXPECT_EQ(tagged.is_full(), general.is_full());
        EXPECT_TRUE(same_bits(tagged.max_cost(), general.max_cost()))
            << tagged.max_cost() << " vs " << general.max_cost();
      }
    }
  }
}

TEST(ConversionTable, SetAndForbid) {
  ConversionTable t(3);
  t.set(0, 1, 2.0);
  EXPECT_TRUE(t.allowed(0, 1));
  EXPECT_DOUBLE_EQ(t.cost(0, 1), 2.0);
  EXPECT_FALSE(t.allowed(1, 0));  // asymmetric
  t.forbid(0, 1);
  EXPECT_FALSE(t.allowed(0, 1));
}

TEST(ConversionTable, CostOnDisallowedThrows) {
  const ConversionTable t = ConversionTable::none(2);
  EXPECT_THROW(t.cost(0, 1), std::logic_error);
}

TEST(ConversionTable, IdentityIsProtected) {
  ConversionTable t(2);
  EXPECT_THROW(t.set(0, 0, 1.0), std::logic_error);
  EXPECT_THROW(t.forbid(1, 1), std::logic_error);
}

TEST(ConversionTable, ReachableComposesSetsAndTable) {
  ConversionTable t(4);
  t.set(0, 2, 1.0);
  t.set(1, 3, 1.0);
  WavelengthSet from;
  from.insert(0);
  const WavelengthSet to = WavelengthSet::all(4);
  const WavelengthSet r = t.reachable(from, to);
  EXPECT_TRUE(r.contains(0));   // identity
  EXPECT_TRUE(r.contains(2));   // 0 -> 2
  EXPECT_FALSE(r.contains(1));
  EXPECT_FALSE(r.contains(3));
}

}  // namespace
}  // namespace wdm::net
