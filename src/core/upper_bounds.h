// The "k-buffer" of BFMSTSearch: for every live candidate, an upper bound of
// its true DISSIM (the exact-side value for completed candidates, PESDISSIM
// for partial ones), answering "current kth smallest upper bound" queries.

#ifndef MST_CORE_UPPER_BOUNDS_H_
#define MST_CORE_UPPER_BOUNDS_H_

#include <limits>
#include <unordered_map>
#include <vector>

#include "src/geom/trajectory.h"
#include "src/util/check.h"

namespace mst {

/// KthValue() is consulted for every processed leaf entry (Heuristic 1, the
/// batched leaf prune) and on every heap pop (Heuristic 2), and Update()
/// runs once per leaf entry, so both stay cheap:
///  * the k smallest bounds live in a flat array (`top_`) with the index of
///    its largest element cached — KthValue() is one load;
///  * every other bound lives only in the id map, marked as outside the top
///    k; max(top_) <= every outside bound.
/// The outside set is scanned for its minimum only when a top member's bound
/// rises past the kth value or a top member is removed. Both are rare on
/// the search path, where PESDISSIM falls as pieces arrive.
class UpperBounds {
 public:
  explicit UpperBounds(int k) : k_(k) {
    MST_CHECK(k >= 1);
    top_.reserve(static_cast<size_t>(k));
  }

  /// Sets `id`'s bound to `upper`, adding `id` if it is new.
  void Update(TrajectoryId id, double upper) {
    const auto [it, inserted] =
        bounds_.try_emplace(id, Bound{upper, kOutside});
    if (inserted) {
      if (static_cast<int>(top_.size()) < k_) {
        Place(static_cast<int>(top_.size()), id, &it->second);
        if (upper >= top_[static_cast<size_t>(max_slot_)].value) {
          max_slot_ = it->second.slot;
        }
      } else if (upper < KthValue()) {
        Evict(max_slot_);
        Place(max_slot_, id, &it->second);
        RefreshMax();
      }
      return;
    }
    Bound& b = it->second;
    b.value = upper;
    if (b.slot == kOutside) {
      // An outside bound enters the top only by falling below the kth value.
      if (upper < KthValue()) {
        Evict(max_slot_);
        Place(max_slot_, id, &b);
        RefreshMax();
      }
      return;
    }
    const int slot = b.slot;
    const double old_max = top_[static_cast<size_t>(max_slot_)].value;
    top_[static_cast<size_t>(slot)].value = upper;
    if (upper > old_max) {
      // Risen past every other top bound: the smallest outside bound may
      // now belong in the top k instead.
      const auto out = MinOutside();
      if (out != bounds_.end() && out->second.value < upper) {
        b.slot = kOutside;
        Place(slot, out->first, &out->second);
        RefreshMax();
      } else {
        max_slot_ = slot;
      }
    } else if (slot == max_slot_) {
      RefreshMax();
    }
  }

  /// Forgets `id` (no-op when absent).
  void Remove(TrajectoryId id) {
    const auto it = bounds_.find(id);
    if (it == bounds_.end()) return;
    const int slot = it->second.slot;
    bounds_.erase(it);
    if (slot == kOutside) return;
    const auto out = MinOutside();
    if (out != bounds_.end()) {
      Place(slot, out->first, &out->second);
    } else {
      // Fewer than k bounds remain: close the gap with the last slot.
      const int last = static_cast<int>(top_.size()) - 1;
      if (slot != last) {
        top_[static_cast<size_t>(slot)] = top_.back();
        bounds_.at(top_[static_cast<size_t>(slot)].id).slot = slot;
      }
      top_.pop_back();
    }
    RefreshMax();
  }

  /// kth smallest upper bound, or +inf while fewer than k candidates exist.
  double KthValue() const {
    if (static_cast<int>(top_.size()) < k_) {
      return std::numeric_limits<double>::infinity();
    }
    return top_[static_cast<size_t>(max_slot_)].value;
  }

  size_t size() const { return bounds_.size(); }

 private:
  static constexpr int kOutside = -1;

  struct Bound {
    double value;
    int slot;  // index into top_, or kOutside
  };
  struct TopEntry {
    double value;
    TrajectoryId id;
  };
  using BoundMap = std::unordered_map<TrajectoryId, Bound>;

  // Puts `id` (whose map entry is `b`) into top slot `slot`; slot ==
  // top_.size() appends.
  void Place(int slot, TrajectoryId id, Bound* b) {
    b->slot = slot;
    if (slot == static_cast<int>(top_.size())) {
      top_.push_back({b->value, id});
    } else {
      top_[static_cast<size_t>(slot)] = {b->value, id};
    }
  }

  // Marks the member in top slot `slot` as outside the top k (its slot is
  // about to be overwritten).
  void Evict(int slot) {
    bounds_.at(top_[static_cast<size_t>(slot)].id).slot = kOutside;
  }

  void RefreshMax() {
    max_slot_ = 0;
    for (size_t i = 1; i < top_.size(); ++i) {
      if (top_[i].value >= top_[static_cast<size_t>(max_slot_)].value) {
        max_slot_ = static_cast<int>(i);
      }
    }
  }

  // Outside member with the smallest bound; end() when there is none.
  BoundMap::iterator MinOutside() {
    auto best = bounds_.end();
    for (auto it = bounds_.begin(); it != bounds_.end(); ++it) {
      if (it->second.slot == kOutside &&
          (best == bounds_.end() || it->second.value < best->second.value)) {
        best = it;
      }
    }
    return best;
  }

  int k_;
  std::vector<TopEntry> top_;  // the k smallest bounds (all while < k)
  int max_slot_ = 0;           // index of max(top_) while top_ is non-empty
  BoundMap bounds_;            // every live id: its bound and top slot
};

}  // namespace mst

#endif  // MST_CORE_UPPER_BOUNDS_H_
