#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "graph/heaps.hpp"
#include "support/rng.hpp"

namespace wdm::graph {
namespace {

TEST(HeapTest, EmptyOnConstruction) {
  QuadHeap h(10);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_FALSE(h.contains(3));
}

TEST(HeapTest, PushPopSingle) {
  QuadHeap h(4);
  h.push(2, 3.5);
  EXPECT_TRUE(h.contains(2));
  EXPECT_DOUBLE_EQ(h.key(2), 3.5);
  const auto [id, k] = h.pop_min();
  EXPECT_EQ(id, 2u);
  EXPECT_DOUBLE_EQ(k, 3.5);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(2));
}

TEST(HeapTest, HeapsortProperty) {
  support::Rng rng(1);
  const std::size_t n = 500;
  QuadHeap h(n);
  std::vector<double> keys;
  for (std::size_t i = 0; i < n; ++i) {
    const double k = rng.uniform(0, 100);
    keys.push_back(k);
    h.push(i, k);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < n; ++i) {
    const auto [id, k] = h.pop_min();
    (void)id;
    EXPECT_DOUBLE_EQ(k, keys[i]);
  }
  EXPECT_TRUE(h.empty());
}

TEST(HeapTest, DecreaseKeyReordersCorrectly) {
  QuadHeap h(4);
  h.push(0, 10.0);
  h.push(1, 20.0);
  h.push(2, 30.0);
  h.decrease_key(2, 5.0);
  EXPECT_DOUBLE_EQ(h.key(2), 5.0);
  EXPECT_EQ(h.pop_min().first, 2u);
  EXPECT_EQ(h.pop_min().first, 0u);
  EXPECT_EQ(h.pop_min().first, 1u);
}

TEST(HeapTest, PushOrDecreaseIgnoresLargerKey) {
  QuadHeap h(2);
  h.push(0, 5.0);
  h.push_or_decrease(0, 9.0);  // no-op
  EXPECT_DOUBLE_EQ(h.key(0), 5.0);
  h.push_or_decrease(0, 2.0);  // decrease
  EXPECT_DOUBLE_EQ(h.key(0), 2.0);
  h.push_or_decrease(1, 1.0);  // push
  EXPECT_EQ(h.pop_min().first, 1u);
}

TEST(HeapTest, RandomizedAgainstReferenceMultimap) {
  support::Rng rng(42);
  const std::size_t universe = 200;
  QuadHeap h(universe);
  std::map<std::size_t, double> ref;  // id -> key
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 2));
    if (op == 0) {
      const std::size_t id = rng.index(universe);
      if (!ref.count(id)) {
        const double k = rng.uniform(0, 1000);
        h.push(id, k);
        ref[id] = k;
      }
    } else if (op == 1 && !ref.empty()) {
      // decrease a random present key
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.index(ref.size())));
      const double nk = it->second * rng.uniform();
      h.decrease_key(it->first, nk);
      it->second = nk;
    } else if (!ref.empty()) {
      const auto [id, k] = h.pop_min();
      double best = std::numeric_limits<double>::infinity();
      for (const auto& [rid, rk] : ref) best = std::min(best, rk);
      EXPECT_DOUBLE_EQ(k, best);
      ASSERT_TRUE(ref.count(id));
      EXPECT_DOUBLE_EQ(ref[id], k);
      ref.erase(id);
    }
    ASSERT_EQ(h.size(), ref.size());
  }
}

// Lockstep differential against a std::map reference. Keys are drawn unique
// (and decrease-key targets stay unique), so min-extraction order is fully
// determined and the heap must produce the IDENTICAL (id, key) pop sequence,
// which the multimap test above cannot pin because it tolerates ties.
TEST(HeapDifferential, BackendsAgreeInLockstepUnderUniqueKeys) {
  for (const std::uint64_t seed : {7u, 19u, 101u, 4242u}) {
    support::Rng rng(seed);
    const std::size_t universe = 128;
    QuadHeap quad(universe);
    std::map<std::size_t, double> ref;  // id -> key
    std::set<double> used_keys;
    auto fresh_key = [&](double hi) {
      double k;
      do {
        k = rng.uniform(0.0, hi);
      } while (!used_keys.insert(k).second);
      return k;
    };
    for (int step = 0; step < 5000; ++step) {
      const int op = static_cast<int>(rng.uniform_int(0, 3));
      if (op <= 1) {  // push (weighted: keep the heap populated)
        const std::size_t id = rng.index(universe);
        if (ref.count(id)) continue;
        const double k = fresh_key(1000.0);
        quad.push(id, k);
        ref[id] = k;
      } else if (op == 2 && !ref.empty()) {
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.index(ref.size())));
        const double nk = fresh_key(it->second);
        quad.decrease_key(it->first, nk);
        it->second = nk;
      } else if (!ref.empty()) {
        const auto [qid, qk] = quad.pop_min();
        const auto min_it = std::min_element(
            ref.begin(), ref.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        ASSERT_EQ(qid, min_it->first);
        ASSERT_EQ(qk, min_it->second);
        ref.erase(min_it);
      }
      ASSERT_EQ(quad.size(), ref.size());
    }
    // Drain: the full residual pop order must follow the reference.
    while (!ref.empty()) {
      const auto [qid, qk] = quad.pop_min();
      const auto min_it = std::min_element(
          ref.begin(), ref.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      ASSERT_EQ(qid, min_it->first);
      ASSERT_EQ(qk, min_it->second);
      ref.erase(min_it);
    }
    EXPECT_TRUE(quad.empty());
  }
}

TEST(HeapTest, ReusableAfterDrain) {
  QuadHeap h(3);
  h.push(0, 1.0);
  h.pop_min();
  h.push(0, 2.0);  // same id again after removal
  EXPECT_DOUBLE_EQ(h.key(0), 2.0);
  EXPECT_EQ(h.pop_min().first, 0u);
}

TEST(HeapTest, EqualKeysAllPopped) {
  QuadHeap h(5);
  for (std::size_t i = 0; i < 5; ++i) h.push(i, 7.0);
  std::vector<bool> seen(5, false);
  for (int i = 0; i < 5; ++i) {
    const auto [id, k] = h.pop_min();
    EXPECT_DOUBLE_EQ(k, 7.0);
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
  EXPECT_TRUE(h.empty());
}

}  // namespace
}  // namespace wdm::graph
