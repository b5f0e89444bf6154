#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <utility>
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

// The pop order is total: (key, id). Keys come from a handful of values so
// most pops tie; ids are pushed in a random order and keys lowered by
// decrease-key and push_or_decrease in between, and every pop must be the
// least (key, id) of a std::set reference.
TEST(HeapOrder, EqualKeysPopInIdOrderWhateverThePushOrder) {
  for (const std::uint64_t seed : {3u, 17u, 99u, 2024u}) {
    support::Rng rng(seed);
    const std::size_t universe = 96;
    QuadHeap h(universe);
    std::set<std::pair<double, std::size_t>> ref;
    std::map<std::size_t, double> key_of;
    const auto small_key = [&] {
      return static_cast<double>(rng.uniform_int(0, 5));
    };
    for (int step = 0; step < 20000; ++step) {
      const auto op = rng.uniform_int(0, 4);
      const std::size_t id = rng.index(universe);
      if (op <= 1) {
        if (key_of.count(id)) continue;
        const double k = small_key();
        h.push(id, k);
        ref.insert({k, id});
        key_of[id] = k;
      } else if (op == 2) {
        // push_or_decrease: a push, a decrease, or a no-op.
        const double k = small_key();
        h.push_or_decrease(id, k);
        const auto it = key_of.find(id);
        if (it == key_of.end()) {
          ref.insert({k, id});
          key_of[id] = k;
        } else if (k < it->second) {
          ref.erase({it->second, id});
          ref.insert({k, id});
          it->second = k;
        }
      } else if (op == 3 && !key_of.empty()) {
        auto it = key_of.begin();
        std::advance(it, static_cast<long>(rng.index(key_of.size())));
        const double k = std::floor(it->second * rng.uniform());
        h.decrease_key(it->first, k);
        ref.erase({it->second, it->first});
        ref.insert({k, it->first});
        it->second = k;
      } else if (!ref.empty()) {
        const auto [qid, qk] = h.pop_min();
        ASSERT_EQ(qid, ref.begin()->second) << "seed " << seed;
        ASSERT_EQ(qk, ref.begin()->first);
        key_of.erase(qid);
        ref.erase(ref.begin());
      }
      ASSERT_EQ(h.size(), ref.size());
    }
    while (!ref.empty()) {
      ASSERT_EQ(h.pop_min().first, ref.begin()->second);
      ref.erase(ref.begin());
    }
  }
}

TEST(HeapOrder, AllEqualKeysPopAscendingFromAnyPushOrder) {
  support::Rng rng(5);
  std::vector<std::size_t> ids(64);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.index(i + 1)]);
    }
    QuadHeap h(ids.size());
    // Half pushed at the key directly, half lowered onto it.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      h.push(ids[i], i % 2 == 0 ? 1.0 : 2.0 + static_cast<double>(i));
    }
    for (std::size_t i = 1; i < ids.size(); i += 2) h.decrease_key(ids[i], 1.0);
    for (std::size_t want = 0; want < ids.size(); ++want) {
      ASSERT_EQ(h.pop_min().first, want) << "round " << round;
    }
  }
}

TEST(HeapOrder, ResetAfterAnEarlyStopLeavesNoStaleId) {
  QuadHeap h(50);
  for (std::size_t id = 0; id < 50; ++id) {
    h.push(id, static_cast<double>(id % 7));
  }
  for (int k = 0; k < 10; ++k) h.pop_min();  // stop early, 40 still queued
  ASSERT_EQ(h.size(), 40u);
  h.reset(50);
  EXPECT_TRUE(h.empty());
  for (std::size_t id = 0; id < 50; ++id) EXPECT_FALSE(h.contains(id)) << id;
  // Every id can be pushed afresh, and the pops follow the new keys only.
  for (std::size_t id = 0; id < 50; ++id) h.push(49 - id, 3.0);
  for (std::size_t want = 0; want < 50; ++want) {
    ASSERT_EQ(h.pop_min(), (std::pair<std::size_t, double>{want, 3.0}));
  }
  // A reset to a larger universe admits the new ids; a smaller one keeps
  // the heap usable for the ids it names.
  h.push(4, 1.0);
  h.reset(200);
  EXPECT_FALSE(h.contains(4));
  h.push(199, 2.0);
  h.push(4, 2.0);
  EXPECT_EQ(h.pop_min().first, 4u);
  h.reset(10);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(199));
  h.push(9, 0.5);
  EXPECT_EQ(h.pop_min().first, 9u);
}

}  // namespace
}  // namespace wdm::graph
