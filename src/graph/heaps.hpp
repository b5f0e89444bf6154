// Addressable priority queue for label-setting shortest-path algorithms.
//
// The paper's complexity bounds assume Fibonacci heaps [Fredman–Tarjan 87].
// In practice a 4-ary heap wins at these sizes: E11 measured it ahead of a
// binary and a pairing heap at every size, so it is the one backend. The
// heap keys a dense id universe [0, n) by double.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace wdm::graph {

/// Indexed 4-ary min-heap with decrease-key via a position index.
class QuadHeap {
 public:
  explicit QuadHeap(std::size_t universe)
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
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const std::size_t id = heap_[i];
    const double k = key_[id];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
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
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
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

}  // namespace wdm::graph
