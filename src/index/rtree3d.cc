#include "src/index/rtree3d.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace mst {
namespace {

// Lexicographic (volume enlargement, margin enlargement) cost of growing
// `base` to cover `add`. The margin term breaks the pervasive volume-0 ties
// caused by degenerate (axis-parallel) segment MBBs.
struct GrowCost {
  double dvolume;
  double dmargin;
  double volume;

  bool operator<(const GrowCost& o) const {
    if (dvolume != o.dvolume) return dvolume < o.dvolume;
    if (dmargin != o.dmargin) return dmargin < o.dmargin;
    return volume < o.volume;
  }
};

// CostOf with the base box's volume and margin supplied by the caller, for
// loops that cost many boxes against one base.
GrowCost CostOf(const Mbb3& base, double base_volume, double base_margin,
                const Mbb3& add) {
  const Mbb3 u = Mbb3::Union(base, add);
  return {u.Volume() - base_volume, u.Margin() - base_margin, base_volume};
}

GrowCost CostOf(const Mbb3& base, const Mbb3& add) {
  return CostOf(base, base.Volume(), base.Margin(), add);
}

// Volume of the intersection of two boxes (0 when disjoint). Degenerate
// (zero-extent) overlaps report 0 — OverlapMargin distinguishes them.
double OverlapVolume(const Mbb3& a, const Mbb3& b) {
  const double dx = std::min(a.xhi, b.xhi) - std::max(a.xlo, b.xlo);
  const double dy = std::min(a.yhi, b.yhi) - std::max(a.ylo, b.ylo);
  const double dt = std::min(a.thi, b.thi) - std::max(a.tlo, b.tlo);
  if (dx < 0.0 || dy < 0.0 || dt < 0.0) return 0.0;
  return dx * dy * dt;
}

// Margin (extent sum) of the intersection of two boxes (0 when disjoint).
// The volume-0 analogue of GrowCost's margin term: segment MBBs are often
// flat, so overlap volumes tie at 0 while overlap margins do not.
double OverlapMargin(const Mbb3& a, const Mbb3& b) {
  const double dx = std::min(a.xhi, b.xhi) - std::max(a.xlo, b.xlo);
  const double dy = std::min(a.yhi, b.yhi) - std::max(a.ylo, b.ylo);
  const double dt = std::min(a.thi, b.thi) - std::max(a.tlo, b.tlo);
  if (dx < 0.0 || dy < 0.0 || dt < 0.0) return 0.0;
  return dx + dy + dt;
}

}  // namespace

std::vector<int> QuadraticSplit(const std::vector<Mbb3>& boxes, int min_fill) {
  const int n = static_cast<int>(boxes.size());
  MST_CHECK(n >= 2);
  MST_CHECK(min_fill >= 1 && 2 * min_fill <= n);

  std::vector<double> volume(boxes.size());
  std::vector<double> margin(boxes.size());
  for (int i = 0; i < n; ++i) {
    volume[i] = boxes[i].Volume();
    margin[i] = boxes[i].Margin();
  }

  // PickSeeds: the pair wasting the most space if grouped together.
  int seed_a = 0;
  int seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Mbb3 u = Mbb3::Union(boxes[i], boxes[j]);
      const double dead = u.Volume() - volume[i] - volume[j] +
                          1e-9 * (u.Margin() - margin[i] - margin[j]);
      if (dead > worst) {
        worst = dead;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<int> group(boxes.size(), -1);
  group[seed_a] = 0;
  group[seed_b] = 1;
  Mbb3 cover[2] = {boxes[seed_a], boxes[seed_b]};
  int count[2] = {1, 1};
  int remaining = n - 2;

  // cost[g][i]: CostOf(cover[g], boxes[i]) for every unassigned i. A cover
  // changes only when its group takes an entry, so only that group's costs
  // are recomputed then.
  std::vector<GrowCost> cost[2] = {std::vector<GrowCost>(boxes.size()),
                                   std::vector<GrowCost>(boxes.size())};
  const auto recost = [&](int g) {
    const double v = cover[g].Volume();
    const double m = cover[g].Margin();
    for (int i = 0; i < n; ++i) {
      if (group[i] < 0) cost[g][i] = CostOf(cover[g], v, m, boxes[i]);
    }
  };
  recost(0);
  recost(1);

  while (remaining > 0) {
    // If one group needs every remaining entry to reach min_fill, take them.
    for (int g = 0; g < 2; ++g) {
      if (count[g] + remaining == min_fill) {
        for (int i = 0; i < n; ++i) {
          if (group[i] < 0) {
            group[i] = g;
            cover[g].Expand(boxes[i]);
            ++count[g];
          }
        }
        remaining = 0;
        break;
      }
    }
    if (remaining == 0) break;

    // PickNext: the entry with the greatest preference between groups.
    int pick = -1;
    double best_diff = -1.0;
    for (int i = 0; i < n; ++i) {
      if (group[i] >= 0) continue;
      const GrowCost& c0 = cost[0][i];
      const GrowCost& c1 = cost[1][i];
      const double diff = std::abs(c0.dvolume - c1.dvolume) +
                          1e-9 * std::abs(c0.dmargin - c1.dmargin);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    MST_DCHECK(pick >= 0);
    int g;
    if (cost[0][pick] < cost[1][pick]) {
      g = 0;
    } else if (cost[1][pick] < cost[0][pick]) {
      g = 1;
    } else {
      g = count[0] <= count[1] ? 0 : 1;
    }
    group[pick] = g;
    const Mbb3 before = cover[g];
    cover[g].Expand(boxes[pick]);
    ++count[g];
    --remaining;
    if (!(cover[g] == before)) recost(g);
  }
  return group;
}

std::vector<int> RStarSplit(const std::vector<Mbb3>& input_boxes, int min_fill,
                            double time_weight) {
  // Work on time-scaled copies when a weight is configured. Volume and
  // overlap-volume comparisons are invariant under a per-axis scale (every
  // term picks up the same factor), so the weight steers exactly the
  // margin-based decisions: the split-axis choice and the margin tiebreaks.
  std::vector<Mbb3> scaled;
  if (time_weight != 1.0) {
    scaled = input_boxes;
    for (Mbb3& b : scaled) {
      b.tlo *= time_weight;
      b.thi *= time_weight;
    }
  }
  const std::vector<Mbb3>& boxes = time_weight != 1.0 ? scaled : input_boxes;
  const int n = static_cast<int>(boxes.size());
  MST_CHECK(n >= 2);
  MST_CHECK(min_fill >= 1 && 2 * min_fill <= n);

  // Axis order (t, x, y) matches the STR tiling convention. `key` 0 sorts by
  // lower coordinate, 1 by upper — the two sorts of the R* algorithm. All
  // sorts break ties deterministically (secondary coordinate, then index).
  const auto lo_of = [](const Mbb3& b, int axis) {
    return axis == 0 ? b.tlo : axis == 1 ? b.xlo : b.ylo;
  };
  const auto hi_of = [](const Mbb3& b, int axis) {
    return axis == 0 ? b.thi : axis == 1 ? b.xhi : b.yhi;
  };
  const auto sorted_order = [&](int axis, int key) {
    std::vector<int> order(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double pa = key == 0 ? lo_of(boxes[a], axis) : hi_of(boxes[a], axis);
      const double pb = key == 0 ? lo_of(boxes[b], axis) : hi_of(boxes[b], axis);
      if (pa != pb) return pa < pb;
      const double sa = key == 0 ? hi_of(boxes[a], axis) : lo_of(boxes[a], axis);
      const double sb = key == 0 ? hi_of(boxes[b], axis) : lo_of(boxes[b], axis);
      if (sa != sb) return sa < sb;
      return a < b;
    });
    return order;
  };

  // For one sorted order, the prefix/suffix unions that every distribution
  // (split position k = size of the first group) is scored from.
  struct Prefixes {
    std::vector<Mbb3> prefix;  // prefix[k] = union of order[0..k)
    std::vector<Mbb3> suffix;  // suffix[k] = union of order[k..n)
  };
  const auto unions_of = [&](const std::vector<int>& order) {
    Prefixes p;
    p.prefix.resize(static_cast<size_t>(n) + 1);
    p.suffix.resize(static_cast<size_t>(n) + 1);
    for (int k = 1; k <= n; ++k) {
      p.prefix[static_cast<size_t>(k)] =
          Mbb3::Union(p.prefix[static_cast<size_t>(k - 1)],
                      boxes[static_cast<size_t>(order[static_cast<size_t>(k - 1)])]);
    }
    for (int k = n - 1; k >= 0; --k) {
      p.suffix[static_cast<size_t>(k)] =
          Mbb3::Union(p.suffix[static_cast<size_t>(k + 1)],
                      boxes[static_cast<size_t>(order[static_cast<size_t>(k)])]);
    }
    return p;
  };

  // ChooseSplitAxis: minimize the margin sum over every legal distribution
  // of both sorts.
  int best_axis = 0;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  std::vector<int> orders[3][2];
  Prefixes unions[3][2];
  for (int axis = 0; axis < 3; ++axis) {
    double margin_sum = 0.0;
    for (int key = 0; key < 2; ++key) {
      orders[axis][key] = sorted_order(axis, key);
      unions[axis][key] = unions_of(orders[axis][key]);
      const Prefixes& u = unions[axis][key];
      for (int k = min_fill; k <= n - min_fill; ++k) {
        margin_sum += u.prefix[static_cast<size_t>(k)].Margin() +
                      u.suffix[static_cast<size_t>(k)].Margin();
      }
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_axis = axis;
    }
  }

  // ChooseSplitIndex: on the chosen axis, minimize (overlap volume, overlap
  // margin, total volume) lexicographically; ties resolve to the lower sort
  // then the smaller split position, deterministically.
  int best_key = 0;
  int best_k = min_fill;
  double best_cost[3] = {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity()};
  for (int key = 0; key < 2; ++key) {
    const Prefixes& u = unions[best_axis][key];
    for (int k = min_fill; k <= n - min_fill; ++k) {
      const Mbb3& g1 = u.prefix[static_cast<size_t>(k)];
      const Mbb3& g2 = u.suffix[static_cast<size_t>(k)];
      const double cost[3] = {OverlapVolume(g1, g2), OverlapMargin(g1, g2),
                              g1.Volume() + g2.Volume()};
      const bool better =
          cost[0] != best_cost[0]   ? cost[0] < best_cost[0]
          : cost[1] != best_cost[1] ? cost[1] < best_cost[1]
                                    : cost[2] < best_cost[2];
      if (better) {
        best_cost[0] = cost[0];
        best_cost[1] = cost[1];
        best_cost[2] = cost[2];
        best_key = key;
        best_k = k;
      }
    }
  }

  std::vector<int> group(boxes.size(), 1);
  const std::vector<int>& order = orders[best_axis][best_key];
  for (int i = 0; i < best_k; ++i) {
    group[static_cast<size_t>(order[static_cast<size_t>(i)])] = 0;
  }
  return group;
}

int ChooseSubtreeRStarIndex(const IndexNode& node, const Mbb3& box) {
  MST_DCHECK(!node.IsLeaf() && node.Count() > 0);
  // Lexicographic (overlap-volume growth, overlap-margin growth, volume
  // enlargement, margin enlargement, volume) cost of routing `box` into each
  // child. The overlap terms are the R* leaf-level rule; the GrowCost tail
  // is the existing degenerate-box-aware tie-break chain.
  int best = 0;
  double best_dov = std::numeric_limits<double>::infinity();
  GrowCost best_grow{std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity()};
  for (int i = 0; i < node.Count(); ++i) {
    const Mbb3& base = node.internals[i].mbb;
    const Mbb3 grown = Mbb3::Union(base, box);
    double dov = 0.0;
    for (int j = 0; j < node.Count(); ++j) {
      if (j == i) continue;
      const Mbb3& other = node.internals[j].mbb;
      // `base` is inside `grown`, so disjoint-from-grown implies the term
      // is zero — the cheap test skips most siblings.
      if (!grown.Intersects(other)) continue;
      dov += OverlapVolume(grown, other) - OverlapVolume(base, other);
    }
    if (dov > best_dov) continue;
    const GrowCost grow = CostOf(base, box);
    if (dov < best_dov || grow < best_grow) {
      best = i;
      best_dov = dov;
      best_grow = grow;
    }
  }
  return best;
}

RTree3D::RTree3D(const Options& options)
    : TrajectoryIndex(options),
      variant_(options.rtree_variant),
      time_weight_(options.rstar_time_weight) {}

namespace {

// Reorders `items` into Sort-Tile-Recursive packing order on the center
// coordinates (t, then x, then y) so that consecutive capacity-sized chunks
// form spatially compact tiles. `center` maps an item to its MBB center.
template <typename Item, typename CenterFn>
void TileOrder(std::vector<Item>* items, CenterFn center) {
  const size_t n = items->size();
  const size_t cap = static_cast<size_t>(IndexNode::kCapacity);
  const size_t pages = (n + cap - 1) / cap;
  if (pages <= 1) return;

  auto by_axis = [&center](int axis) {
    return [axis, &center](const Item& a, const Item& b) {
      const auto ca = center(a);
      const auto cb = center(b);
      return ca[axis] < cb[axis];
    };
  };

  std::sort(items->begin(), items->end(), by_axis(0));  // time
  const size_t nslabs = static_cast<size_t>(
      std::ceil(std::cbrt(static_cast<double>(pages))));
  const size_t slab_n = (n + nslabs - 1) / nslabs;
  for (size_t s0 = 0; s0 < n; s0 += slab_n) {
    const size_t s1 = std::min(n, s0 + slab_n);
    std::sort(items->begin() + static_cast<ptrdiff_t>(s0),
              items->begin() + static_cast<ptrdiff_t>(s1), by_axis(1));  // x
    const size_t slab_pages = (s1 - s0 + cap - 1) / cap;
    const size_t nruns = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(slab_pages))));
    const size_t run_n = (s1 - s0 + nruns - 1) / nruns;
    for (size_t r0 = s0; r0 < s1; r0 += run_n) {
      const size_t r1 = std::min(s1, r0 + run_n);
      std::sort(items->begin() + static_cast<ptrdiff_t>(r0),
                items->begin() + static_cast<ptrdiff_t>(r1),
                by_axis(2));  // y
    }
  }
}

std::array<double, 3> CenterOf(const Mbb3& m) {
  return {0.5 * (m.tlo + m.thi), 0.5 * (m.xlo + m.xhi),
          0.5 * (m.ylo + m.yhi)};
}

}  // namespace

void RTree3D::BulkLoad(const TrajectoryStore& store) {
  std::vector<LeafEntry> entries;
  entries.reserve(static_cast<size_t>(store.TotalSegments()));
  for (const Trajectory& t : store.trajectories()) {
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      entries.push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
    }
  }
  BulkLoad(std::move(entries));
}

void RTree3D::BulkLoad(std::vector<LeafEntry> entries) {
  MST_CHECK_MSG(empty(), "BulkLoad requires an empty tree");
  if (entries.empty()) return;
  for (const LeafEntry& e : entries) NoteInsert(e);

  TileOrder(&entries,
            [](const LeafEntry& e) { return CenterOf(e.Bounds()); });

  // Each packed node is complete when its inner session closes, which lets
  // the arena evict it and stay within its bound.
  const ArenaSession load(this);

  // Pack the leaf level.
  std::vector<InternalEntry> level_items;
  const size_t cap = static_cast<size_t>(IndexNode::kCapacity);
  for (size_t i = 0; i < entries.size(); i += cap) {
    const ArenaSession one(this);
    IndexNode& leaf = AllocateNode(0);
    leaf.leaves.assign(
        entries.begin() + static_cast<ptrdiff_t>(i),
        entries.begin() +
            static_cast<ptrdiff_t>(std::min(entries.size(), i + cap)));
    level_items.push_back({leaf.Bounds(), leaf.self, 0});
  }

  // Pack upper levels until a single node remains.
  int level = 1;
  while (level_items.size() > 1) {
    TileOrder(&level_items,
              [](const InternalEntry& e) { return CenterOf(e.mbb); });
    std::vector<InternalEntry> next;
    for (size_t i = 0; i < level_items.size(); i += cap) {
      const ArenaSession one(this);
      IndexNode& node = AllocateNode(level);
      node.internals.assign(
          level_items.begin() + static_cast<ptrdiff_t>(i),
          level_items.begin() +
              static_cast<ptrdiff_t>(std::min(level_items.size(), i + cap)));
      next.push_back({node.Bounds(), node.self, 0});
    }
    level_items = std::move(next);
    ++level;
  }
  set_root(level_items.front().child);
  set_height(level);
}

int ChooseSubtreeIndex(const IndexNode& node, const Mbb3& box) {
  MST_DCHECK(!node.IsLeaf() && node.Count() > 0);
  int best = 0;
  GrowCost best_cost = CostOf(node.internals[0].mbb, box);
  for (int i = 1; i < node.Count(); ++i) {
    const GrowCost cost = CostOf(node.internals[i].mbb, box);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

int RTree3D::ChooseSubtree(const IndexNode& node, const Mbb3& box) {
  return ChooseSubtreeIndex(node, box);
}

void RTree3D::ExpandPath(const std::vector<Step>& path, const Mbb3& box) {
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    MutableNode(it->node).internals[it->child_idx].mbb.Expand(box);
  }
}

void RTree3D::TightenPath(const std::vector<Step>& path) {
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    InternalEntry& e = MutableNode(it->node).internals[it->child_idx];
    e.mbb = MutableNode(e.child).Bounds();
  }
}

void RTree3D::InsertEntry(const LeafEntry& entry) {
  if (empty()) {
    IndexNode& leaf = AllocateNode(0);
    leaf.leaves.push_back(entry);
    set_root(leaf.self);
    set_height(1);
    return;
  }
  if (variant_ == RTreeVariant::kRStar) {
    RStarInsert(entry);
    return;
  }
  QuadraticInsert(entry);
}

void RTree3D::QuadraticInsert(const LeafEntry& entry) {
  const Mbb3 box = entry.Bounds();

  // Descend to the best leaf, recording the path.
  std::vector<Step> path;
  PageId cur = root();
  IndexNode* node = &MutableNode(cur);
  while (!node->IsLeaf()) {
    const int child = ChooseSubtree(*node, box);
    path.push_back({cur, child});
    cur = node->internals[child].child;
    node = &MutableNode(cur);
  }

  if (!node->IsFull()) {
    node->leaves.push_back(entry);
    ExpandPath(path, box);
    return;
  }

  // Leaf overflow: quadratic split.
  const int min_fill = std::max(
      1, static_cast<int>(IndexNode::kCapacity * kMinFillFraction));
  std::vector<LeafEntry> all = node->leaves.ToVector();
  all.push_back(entry);
  std::vector<Mbb3> boxes;
  boxes.reserve(all.size());
  for (const LeafEntry& e : all) boxes.push_back(e.Bounds());
  const std::vector<int> split = QuadraticSplit(boxes, min_fill);

  IndexNode& right = AllocateNode(0);
  node->leaves.clear();
  for (size_t i = 0; i < all.size(); ++i) {
    (split[i] == 0 ? node->leaves : right.leaves).push_back(all[i]);
  }

  Mbb3 left_box = node->Bounds();
  Mbb3 right_box = right.Bounds();
  PageId right_id = right.self;
  int split_level = 1;  // level of the node that must absorb `right_id`

  // Propagate the split upward.
  while (!path.empty()) {
    const Step step = path.back();
    path.pop_back();
    IndexNode& parent = MutableNode(step.node);
    parent.internals[step.child_idx].mbb = left_box;
    if (!parent.IsFull()) {
      parent.internals.push_back({right_box, right_id, 0});
      // The subtree's union grew exactly by `box`; expand the ancestors.
      ExpandPath(path, box);
      return;
    }
    std::vector<InternalEntry> entries = parent.internals;
    entries.push_back({right_box, right_id, 0});
    std::vector<Mbb3> eboxes;
    eboxes.reserve(entries.size());
    for (const InternalEntry& e : entries) eboxes.push_back(e.mbb);
    const std::vector<int> esplit = QuadraticSplit(eboxes, min_fill);

    IndexNode& sibling = AllocateNode(parent.level);
    parent.internals.clear();
    for (size_t i = 0; i < entries.size(); ++i) {
      (esplit[i] == 0 ? parent.internals : sibling.internals)
          .push_back(entries[i]);
    }
    left_box = parent.Bounds();
    right_box = sibling.Bounds();
    right_id = sibling.self;
    split_level = parent.level + 1;
  }

  GrowRoot(left_box, right_box, right_id, split_level);
}

void RTree3D::GrowRoot(const Mbb3& left_box, const Mbb3& right_box,
                       PageId right_id, int level) {
  IndexNode& new_root = AllocateNode(level);
  new_root.internals.push_back({left_box, root(), 0});
  new_root.internals.push_back({right_box, right_id, 0});
  set_root(new_root.self);
  set_height(height() + 1);
}

void RTree3D::RStarInsert(const LeafEntry& entry) {
  // The FIFO work queue forced reinsertion refills, plus the once-per-level
  // overflow guard — both scoped to this one user-visible insert.
  std::vector<Pending> queue;
  std::vector<bool> reinserted;
  Pending first;
  first.box = entry.Bounds();
  first.target_level = 0;
  first.leaf = entry;
  queue.push_back(first);
  for (size_t i = 0; i < queue.size(); ++i) {
    const Pending pending = queue[i];  // copy: the loop body grows `queue`
    RStarInsertPending(pending, &queue, &reinserted);
  }
}

void RTree3D::RStarInsertPending(const Pending& pending,
                                 std::vector<Pending>* queue,
                                 std::vector<bool>* reinserted) {
  const int min_fill = std::max(
      1, static_cast<int>(IndexNode::kCapacity * kMinFillFraction));

  // Descend to the target level. The R* overlap rule applies where the
  // children are leaves (level 1, only reachable for leaf-entry pendings);
  // above that, least volume enlargement — the existing GrowCost chain.
  std::vector<Step> path;
  PageId cur = root();
  IndexNode* cur_node = &MutableNode(cur);
  MST_CHECK(cur_node->level >= pending.target_level);
  while (cur_node->level > pending.target_level) {
    const int child = cur_node->level == 1
                          ? ChooseSubtreeRStarIndex(*cur_node, pending.box)
                          : ChooseSubtreeIndex(*cur_node, pending.box);
    path.push_back({cur, child});
    cur = cur_node->internals[child].child;
    cur_node = &MutableNode(cur);
  }
  IndexNode& node = *cur_node;

  if (!node.IsFull()) {
    if (node.IsLeaf()) {
      node.leaves.push_back(pending.leaf);
    } else {
      node.internals.push_back(pending.internal);
    }
    ExpandPath(path, pending.box);
    return;
  }

  // Overflow. Gather the node's entries plus the pending one; from here on
  // the node is rebuilt from these vectors (never pushed past capacity).
  std::vector<LeafEntry> leaf_all;
  std::vector<InternalEntry> internal_all;
  std::vector<Mbb3> boxes;
  if (node.IsLeaf()) {
    leaf_all = node.leaves.ToVector();
    leaf_all.push_back(pending.leaf);
    boxes.reserve(leaf_all.size());
    for (const LeafEntry& e : leaf_all) boxes.push_back(e.Bounds());
  } else {
    internal_all = node.internals;
    internal_all.push_back(pending.internal);
    boxes.reserve(internal_all.size());
    for (const InternalEntry& e : internal_all) boxes.push_back(e.mbb);
  }
  const int n = static_cast<int>(boxes.size());
  const int level = node.level;
  const bool is_root = path.empty();
  const bool guard_set = level < static_cast<int>(reinserted->size()) &&
                         (*reinserted)[static_cast<size_t>(level)];

  if (!is_root && !guard_set) {
    // Forced reinsertion: evict the p-fraction of entries whose centers lie
    // farthest from the center of the overflowing node's cover, and defer
    // them onto the queue (closest first). Once per level per insert.
    if (static_cast<int>(reinserted->size()) <= level) {
      reinserted->resize(static_cast<size_t>(level) + 1, false);
    }
    (*reinserted)[static_cast<size_t>(level)] = true;

    Mbb3 cover;
    for (const Mbb3& b : boxes) cover.Expand(b);
    const double cx = 0.5 * (cover.xlo + cover.xhi);
    const double cy = 0.5 * (cover.ylo + cover.yhi);
    const double ct = 0.5 * (cover.tlo + cover.thi);
    std::vector<double> dist2(boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      const double dx = 0.5 * (boxes[i].xlo + boxes[i].xhi) - cx;
      const double dy = 0.5 * (boxes[i].ylo + boxes[i].yhi) - cy;
      const double dt =
          (0.5 * (boxes[i].tlo + boxes[i].thi) - ct) * time_weight_;
      dist2[i] = dx * dx + dy * dy + dt * dt;
    }
    std::vector<int> order(boxes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (dist2[static_cast<size_t>(a)] != dist2[static_cast<size_t>(b)]) {
        return dist2[static_cast<size_t>(a)] > dist2[static_cast<size_t>(b)];
      }
      return a < b;
    });
    const int evict =
        std::max(1, static_cast<int>(kReinsertFraction * n));
    MST_CHECK(n - evict >= min_fill);
    std::vector<bool> gone(boxes.size(), false);
    for (int k = 0; k < evict; ++k) {
      gone[static_cast<size_t>(order[static_cast<size_t>(k)])] = true;
    }

    if (node.IsLeaf()) {
      node.leaves.clear();
      for (size_t i = 0; i < leaf_all.size(); ++i) {
        if (!gone[i]) node.leaves.push_back(leaf_all[i]);
      }
    } else {
      node.internals.clear();
      for (size_t i = 0; i < internal_all.size(); ++i) {
        if (!gone[i]) node.internals.push_back(internal_all[i]);
      }
    }
    // The node shrank; ancestors need exact recomputation, not expansion.
    TightenPath(path);

    // Close reinsert: queue the evicted entries nearest-first (reverse of
    // the farthest-first eviction order).
    for (int k = evict - 1; k >= 0; --k) {
      const size_t i = static_cast<size_t>(order[static_cast<size_t>(k)]);
      Pending p;
      p.box = boxes[i];
      p.target_level = level;
      if (node.IsLeaf()) {
        p.leaf = leaf_all[i];
      } else {
        p.internal = internal_all[i];
      }
      queue->push_back(p);
    }
    return;
  }

  // R* split at this level.
  const std::vector<int> split = RStarSplit(boxes, min_fill, time_weight_);
  IndexNode& right = AllocateNode(level);
  if (node.IsLeaf()) {
    node.leaves.clear();
    for (size_t i = 0; i < leaf_all.size(); ++i) {
      (split[i] == 0 ? node.leaves : right.leaves).push_back(leaf_all[i]);
    }
  } else {
    node.internals.clear();
    for (size_t i = 0; i < internal_all.size(); ++i) {
      (split[i] == 0 ? node.internals : right.internals)
          .push_back(internal_all[i]);
    }
  }

  Mbb3 left_box = node.Bounds();
  Mbb3 right_box = right.Bounds();
  PageId right_id = right.self;
  int split_level = level + 1;

  // Propagate upward. Each ancestor overflow consults the reinsertion guard
  // for its own level first; only when that level already reinserted during
  // this insert does it split.
  while (!path.empty()) {
    const Step step = path.back();
    path.pop_back();
    IndexNode& parent = MutableNode(step.node);
    parent.internals[step.child_idx].mbb = left_box;
    const InternalEntry sibling_entry{right_box, right_id, 0};
    if (!parent.IsFull()) {
      parent.internals.push_back(sibling_entry);
      TightenPath(path);
      return;
    }

    const int plevel = parent.level;
    const bool parent_is_root = path.empty();
    const bool pguard = plevel < static_cast<int>(reinserted->size()) &&
                        (*reinserted)[static_cast<size_t>(plevel)];
    std::vector<InternalEntry> entries = parent.internals;
    entries.push_back(sibling_entry);
    std::vector<Mbb3> eboxes;
    eboxes.reserve(entries.size());
    for (const InternalEntry& e : entries) eboxes.push_back(e.mbb);

    if (!parent_is_root && !pguard) {
      // Forced reinsertion of routing entries at this level: detach the
      // farthest subtrees and defer them (the split below already happened
      // and stays — its sibling entry competes for eviction like any other).
      if (static_cast<int>(reinserted->size()) <= plevel) {
        reinserted->resize(static_cast<size_t>(plevel) + 1, false);
      }
      (*reinserted)[static_cast<size_t>(plevel)] = true;

      Mbb3 cover;
      for (const Mbb3& b : eboxes) cover.Expand(b);
      const double cx = 0.5 * (cover.xlo + cover.xhi);
      const double cy = 0.5 * (cover.ylo + cover.yhi);
      const double ct = 0.5 * (cover.tlo + cover.thi);
      std::vector<double> dist2(eboxes.size());
      for (size_t i = 0; i < eboxes.size(); ++i) {
        const double dx = 0.5 * (eboxes[i].xlo + eboxes[i].xhi) - cx;
        const double dy = 0.5 * (eboxes[i].ylo + eboxes[i].yhi) - cy;
        const double dt =
            (0.5 * (eboxes[i].tlo + eboxes[i].thi) - ct) * time_weight_;
        dist2[i] = dx * dx + dy * dy + dt * dt;
      }
      std::vector<int> order(eboxes.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (dist2[static_cast<size_t>(a)] != dist2[static_cast<size_t>(b)]) {
          return dist2[static_cast<size_t>(a)] > dist2[static_cast<size_t>(b)];
        }
        return a < b;
      });
      const int en = static_cast<int>(eboxes.size());
      const int evict = std::max(1, static_cast<int>(kReinsertFraction * en));
      MST_CHECK(en - evict >= min_fill);
      std::vector<bool> gone(eboxes.size(), false);
      for (int k = 0; k < evict; ++k) {
        gone[static_cast<size_t>(order[static_cast<size_t>(k)])] = true;
      }
      parent.internals.clear();
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!gone[i]) parent.internals.push_back(entries[i]);
      }
      TightenPath(path);
      for (int k = evict - 1; k >= 0; --k) {
        const size_t i = static_cast<size_t>(order[static_cast<size_t>(k)]);
        Pending p;
        p.box = eboxes[i];
        p.target_level = plevel;
        p.internal = entries[i];
        queue->push_back(p);
      }
      return;
    }

    const std::vector<int> esplit =
        RStarSplit(eboxes, min_fill, time_weight_);
    IndexNode& sibling = AllocateNode(plevel);
    parent.internals.clear();
    for (size_t i = 0; i < entries.size(); ++i) {
      (esplit[i] == 0 ? parent.internals : sibling.internals)
          .push_back(entries[i]);
    }
    left_box = parent.Bounds();
    right_box = sibling.Bounds();
    right_id = sibling.self;
    split_level = plevel + 1;
  }

  GrowRoot(left_box, right_box, right_id, split_level);
}

}  // namespace mst
