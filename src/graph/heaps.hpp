// Addressable priority queue for label-setting shortest-path algorithms.
//
// The paper's complexity bounds assume Fibonacci heaps [Fredman–Tarjan 87].
// In practice a 4-ary heap wins at these sizes: E11 measured it ahead of a
// binary and a pairing heap at every size, so it is the one backend. The
// heap keys a dense id universe [0, n) by double.
//
// Pops follow one total order, (key, id): of two equal keys the lower id
// comes out first, whatever the order of pushes and decrease-keys. A search
// on the heap therefore settles equal-distance nodes in id order, which is
// what lets a hand-written sweep reproduce a Dijkstra's tie-breaks exactly
// (rwa::refine_along_into).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace wdm::graph {

/// Indexed 4-ary min-heap with decrease-key via a position index. Each
/// slot holds its key next to its id, so a sift compares the four children
/// of a slot without an indirection into a per-id key array.
class QuadHeap {
 public:
  explicit QuadHeap(std::size_t universe) : pos_(universe, kAbsent) {}

  /// Empties the heap and makes room for ids in [0, universe), keeping
  /// capacity. O(ids still queued): only their positions are cleared, and
  /// the index grows only when `universe` exceeds it.
  void reset(std::size_t universe) {
    for (const Slot& slot : heap_) pos_[slot.id] = kAbsent;
    heap_.clear();
    if (pos_.size() < universe) pos_.resize(universe, kAbsent);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::size_t id) const { return pos_[id] != kAbsent; }
  /// The least queued key (the next pop's).
  double min_key() const {
    WDM_DCHECK(!empty());
    return heap_[0].key;
  }
  double key(std::size_t id) const {
    WDM_DCHECK(contains(id));
    return heap_[pos_[id]].key;
  }

  void push(std::size_t id, double key) {
    WDM_DCHECK(!contains(id));
    heap_.push_back({key, id});
    sift_up(heap_.size() - 1);
  }

  void decrease_key(std::size_t id, double key) {
    WDM_DCHECK(contains(id));
    Slot& slot = heap_[pos_[id]];
    WDM_DCHECK(key <= slot.key);
    slot.key = key;
    sift_up(pos_[id]);
  }

  /// Pushes if absent, otherwise decreases the key (no-op if not smaller).
  void push_or_decrease(std::size_t id, double key) {
    if (!contains(id)) {
      push(id, key);
    } else if (key < heap_[pos_[id]].key) {
      decrease_key(id, key);
    }
  }

  std::pair<std::size_t, double> pop_min() {
    WDM_DCHECK(!empty());
    const Slot top = heap_[0];
    pos_[top.id] = kAbsent;
    const Slot last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return {top.id, top.key};
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  static constexpr std::size_t kArity = 4;

  struct Slot {
    double key;
    std::size_t id;
  };

  /// The pop order: (key, id) lexicographically.
  static bool before(const Slot& a, const Slot& b) {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  }

  /// Moves the slot at `i` up to its place.
  void sift_up(std::size_t i) {
    const Slot s = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (before(heap_[parent], s)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = i;
      i = parent;
    }
    heap_[i] = s;
    pos_[s.id] = i;
  }

  /// Places `s` at the root's hole and moves it down to its place.
  void sift_down(const Slot s) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (before(s, heap_[best])) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = i;
      i = best;
    }
    heap_[i] = s;
    pos_[s.id] = i;
  }

  std::vector<std::size_t> pos_;
  std::vector<Slot> heap_;
};

}  // namespace wdm::graph
