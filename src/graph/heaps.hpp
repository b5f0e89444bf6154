// Addressable priority queues for label-setting shortest-path algorithms.
//
// The paper's complexity bounds assume Fibonacci heaps [Fredman–Tarjan 87].
// In practice d-ary heaps win at these sizes; we provide an indexed d-ary
// heap (default backend) and an addressable pairing heap with O(1) amortized
// decrease-key as the Fibonacci stand-in — the micro-bench (E11) compares
// them. All heaps key a dense id universe [0, n) by double.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace wdm::graph {

/// Indexed min-heap with arity D and decrease-key via a position index.
template <int D>
class DAryHeap {
  static_assert(D >= 2);

 public:
  explicit DAryHeap(std::size_t universe)
      : key_(universe, 0.0), pos_(universe, kAbsent) {}

  /// Empties the heap and resizes its id universe, keeping capacity.
  void reset(std::size_t universe) {
    key_.assign(universe, 0.0);
    pos_.assign(universe, kAbsent);
    heap_.clear();
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::size_t id) const { return pos_[id] != kAbsent; }
  double key(std::size_t id) const {
    WDM_DCHECK(contains(id));
    return key_[id];
  }

  void push(std::size_t id, double key) {
    WDM_DCHECK(!contains(id));
    key_[id] = key;
    pos_[id] = heap_.size();
    heap_.push_back(id);
    sift_up(heap_.size() - 1);
  }

  void decrease_key(std::size_t id, double key) {
    WDM_DCHECK(contains(id));
    WDM_DCHECK(key <= key_[id]);
    key_[id] = key;
    sift_up(pos_[id]);
  }

  /// Pushes if absent, otherwise decreases the key (no-op if not smaller).
  void push_or_decrease(std::size_t id, double key) {
    if (!contains(id)) {
      push(id, key);
    } else if (key < key_[id]) {
      decrease_key(id, key);
    }
  }

  std::pair<std::size_t, double> pop_min() {
    WDM_DCHECK(!empty());
    const std::size_t id = heap_[0];
    const double k = key_[id];
    pos_[id] = kAbsent;
    if (heap_.size() > 1) {
      heap_[0] = heap_.back();
      pos_[heap_[0]] = 0;
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return {id, k};
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  void sift_up(std::size_t i) {
    const std::size_t id = heap_[i];
    const double k = key_[id];
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (key_[heap_[parent]] <= k) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = id;
    pos_[id] = i;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const std::size_t id = heap_[i];
    const double k = key_[id];
    while (true) {
      const std::size_t first = i * D + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + D, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (key_[heap_[c]] < key_[heap_[best]]) best = c;
      }
      if (key_[heap_[best]] >= k) break;
      heap_[i] = heap_[best];
      pos_[heap_[i]] = i;
      i = best;
    }
    heap_[i] = id;
    pos_[id] = i;
  }

  std::vector<double> key_;
  std::vector<std::size_t> pos_;
  std::vector<std::size_t> heap_;
};

using BinaryHeap = DAryHeap<2>;
using QuadHeap = DAryHeap<4>;

/// Addressable two-pass pairing heap: O(1) insert/meld/decrease-key
/// (amortized), O(log n) amortized pop-min. Nodes are pooled per heap
/// instance; ids must come from the dense universe [0, n).
class PairingHeap {
 public:
  explicit PairingHeap(std::size_t universe)
      : node_(universe), present_(universe, 0) {}

  bool empty() const { return root_ == kNull; }
  std::size_t size() const { return count_; }
  bool contains(std::size_t id) const { return present_[id] != 0; }
  double key(std::size_t id) const {
    WDM_DCHECK(contains(id));
    return node_[id].key;
  }

  void push(std::size_t id, double key) {
    WDM_DCHECK(!contains(id));
    Node& nd = node_[id];
    nd = Node{};
    nd.key = key;
    present_[id] = 1;
    ++count_;
    root_ = (root_ == kNull) ? static_cast<Idx>(id)
                             : meld(root_, static_cast<Idx>(id));
  }

  void decrease_key(std::size_t id, double key) {
    WDM_DCHECK(contains(id));
    WDM_DCHECK(key <= node_[id].key);
    node_[id].key = key;
    const Idx x = static_cast<Idx>(id);
    if (x == root_) return;
    cut(x);
    root_ = meld(root_, x);
  }

  void push_or_decrease(std::size_t id, double key) {
    if (!contains(id)) {
      push(id, key);
    } else if (key < node_[id].key) {
      decrease_key(id, key);
    }
  }

  std::pair<std::size_t, double> pop_min() {
    WDM_DCHECK(!empty());
    const Idx old = root_;
    const double k = node_[old].key;
    present_[static_cast<std::size_t>(old)] = 0;
    --count_;
    root_ = two_pass_merge(node_[old].child);
    if (root_ != kNull) {
      node_[root_].parent = kNull;
      node_[root_].sibling = kNull;
    }
    return {static_cast<std::size_t>(old), k};
  }

 private:
  using Idx = std::int64_t;
  static constexpr Idx kNull = -1;

  struct Node {
    double key = 0.0;
    Idx child = kNull;
    Idx sibling = kNull;
    Idx parent = kNull;  // actual parent only for first child; else left sibling
  };

  Idx meld(Idx a, Idx b) {
    if (a == kNull) return b;
    if (b == kNull) return a;
    if (node_[b].key < node_[a].key) std::swap(a, b);
    // b becomes first child of a.
    node_[b].sibling = node_[a].child;
    if (node_[a].child != kNull) node_[node_[a].child].parent = b;
    node_[b].parent = a;
    node_[a].child = b;
    return a;
  }

  /// Detaches subtree x from its parent / sibling list.
  void cut(Idx x) {
    const Idx p = node_[x].parent;
    WDM_DCHECK(p != kNull);
    if (node_[p].child == x) {
      node_[p].child = node_[x].sibling;
      if (node_[x].sibling != kNull) node_[node_[x].sibling].parent = p;
    } else {
      // p is the left sibling.
      node_[p].sibling = node_[x].sibling;
      if (node_[x].sibling != kNull) node_[node_[x].sibling].parent = p;
    }
    node_[x].parent = kNull;
    node_[x].sibling = kNull;
  }

  Idx two_pass_merge(Idx first) {
    if (first == kNull || node_[first].sibling == kNull) return first;
    // Pass 1: meld pairs left-to-right.
    scratch_.clear();
    Idx cur = first;
    while (cur != kNull) {
      const Idx a = cur;
      const Idx b = node_[a].sibling;
      Idx next = kNull;
      if (b != kNull) next = node_[b].sibling;
      node_[a].sibling = kNull;
      node_[a].parent = kNull;
      if (b != kNull) {
        node_[b].sibling = kNull;
        node_[b].parent = kNull;
      }
      scratch_.push_back(meld(a, b));
      cur = next;
    }
    // Pass 2: meld right-to-left.
    Idx root = scratch_.back();
    for (std::size_t i = scratch_.size() - 1; i-- > 0;) {
      root = meld(root, scratch_[i]);
    }
    return root;
  }

  std::vector<Node> node_;
  std::vector<std::uint8_t> present_;
  std::vector<Idx> scratch_;
  Idx root_ = kNull;
  std::size_t count_ = 0;
};

}  // namespace wdm::graph
