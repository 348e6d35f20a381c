#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

// Collects every leaf entry in the tree by full traversal.
void CollectAll(const TrajectoryIndex& index, PageId page,
                std::vector<LeafEntry>* out) {
  const NodeRef node = index.ReadNode(page);
  if (node->IsLeaf()) {
    out->insert(out->end(), node->leaves.begin(), node->leaves.end());
    return;
  }
  for (const InternalEntry& e : node->internals) {
    CollectAll(index, e.child, out);
  }
}

// Range query using MBB pruning.
void RangeQuery(const TrajectoryIndex& index, PageId page, const Mbb3& box,
                std::vector<LeafEntry>* out) {
  const NodeRef node = index.ReadNode(page);
  if (node->IsLeaf()) {
    for (const LeafEntry& e : node->leaves) {
      if (e.Bounds().Intersects(box)) out->push_back(e);
    }
    return;
  }
  for (const InternalEntry& e : node->internals) {
    if (e.mbb.Intersects(box)) RangeQuery(index, e.child, box, out);
  }
}

std::multiset<std::pair<TrajectoryId, double>> Keys(
    const std::vector<LeafEntry>& entries) {
  std::multiset<std::pair<TrajectoryId, double>> keys;
  for (const LeafEntry& e : entries) keys.insert({e.traj_id, e.t0});
  return keys;
}

TEST(QuadraticSplitTest, RespectsMinFill) {
  Rng rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Mbb3> boxes;
    const int n = IndexNode::kCapacity + 1;
    for (int i = 0; i < n; ++i) {
      const TPoint a{rng.Uniform(0, 10), {rng.Uniform(0, 10),
                                          rng.Uniform(0, 10)}};
      const TPoint b{a.t + rng.Uniform(0.01, 1.0),
                     {a.p.x + rng.Uniform(-1, 1), a.p.y + rng.Uniform(-1, 1)}};
      boxes.push_back(Mbb3::OfSegment(a, b));
    }
    const int min_fill = 29;
    const std::vector<int> group = QuadraticSplit(boxes, min_fill);
    ASSERT_EQ(group.size(), boxes.size());
    int c0 = 0;
    int c1 = 0;
    for (int g : group) {
      ASSERT_TRUE(g == 0 || g == 1);
      (g == 0 ? c0 : c1)++;
    }
    EXPECT_GE(c0, min_fill);
    EXPECT_GE(c1, min_fill);
    EXPECT_EQ(c0 + c1, n);
  }
}

TEST(QuadraticSplitTest, SeparatesTwoClusters) {
  // Two well-separated spatial clusters should end up in different groups.
  std::vector<Mbb3> boxes;
  Rng rng(93);
  for (int i = 0; i < 36; ++i) {
    const TPoint a{rng.Uniform(0, 1), {rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    boxes.push_back(Mbb3::OfSegment(a, {a.t + 0.1, a.p}));
  }
  for (int i = 0; i < 37; ++i) {
    const TPoint a{rng.Uniform(0, 1),
                   {rng.Uniform(100, 101), rng.Uniform(100, 101)}};
    boxes.push_back(Mbb3::OfSegment(a, {a.t + 0.1, a.p}));
  }
  const std::vector<int> group = QuadraticSplit(boxes, 29);
  // All of cluster 1 in one group, all of cluster 2 in the other.
  for (size_t i = 1; i < 36; ++i) EXPECT_EQ(group[i], group[0]);
  for (size_t i = 37; i < 73; ++i) EXPECT_EQ(group[i], group[36]);
  EXPECT_NE(group[0], group[36]);
}

// The textbook form of the quadratic split: PickNext re-costs every
// unassigned box against both groups in every round. QuadraticSplit keeps
// the costs and re-costs only the group whose cover grew; the decisions
// must be bitwise the same. `take_all` and `ties` count how often the
// min-fill take-all branch and the equal-cost tie-break ran.
struct ReferenceGrowCost {
  double dvolume;
  double dmargin;
  double volume;

  bool operator<(const ReferenceGrowCost& o) const {
    if (dvolume != o.dvolume) return dvolume < o.dvolume;
    if (dmargin != o.dmargin) return dmargin < o.dmargin;
    return volume < o.volume;
  }
};

ReferenceGrowCost ReferenceCostOf(const Mbb3& base, const Mbb3& add) {
  const Mbb3 u = Mbb3::Union(base, add);
  return {u.Volume() - base.Volume(), u.Margin() - base.Margin(),
          base.Volume()};
}

std::vector<int> ReferenceQuadraticSplit(const std::vector<Mbb3>& boxes,
                                         int min_fill, int* take_all,
                                         int* ties) {
  const int n = static_cast<int>(boxes.size());
  int seed_a = 0;
  int seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Mbb3 u = Mbb3::Union(boxes[i], boxes[j]);
      const double dead =
          u.Volume() - boxes[i].Volume() - boxes[j].Volume() +
          1e-9 * (u.Margin() - boxes[i].Margin() - boxes[j].Margin());
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
  while (remaining > 0) {
    for (int g = 0; g < 2; ++g) {
      if (count[g] + remaining == min_fill) {
        ++*take_all;
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
    int pick = -1;
    double best_diff = -1.0;
    ReferenceGrowCost pick_cost[2] = {};
    for (int i = 0; i < n; ++i) {
      if (group[i] >= 0) continue;
      const ReferenceGrowCost c0 = ReferenceCostOf(cover[0], boxes[i]);
      const ReferenceGrowCost c1 = ReferenceCostOf(cover[1], boxes[i]);
      const double diff = std::abs(c0.dvolume - c1.dvolume) +
                          1e-9 * std::abs(c0.dmargin - c1.dmargin);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
        pick_cost[0] = c0;
        pick_cost[1] = c1;
      }
    }
    int g;
    if (pick_cost[0] < pick_cost[1]) {
      g = 0;
    } else if (pick_cost[1] < pick_cost[0]) {
      g = 1;
    } else {
      ++*ties;
      g = count[0] <= count[1] ? 0 : 1;
    }
    group[pick] = g;
    cover[g].Expand(boxes[pick]);
    ++count[g];
    --remaining;
  }
  return group;
}

TEST(QuadraticSplitTest, MatchesTheReferenceSplitBitwise) {
  Rng rng(2024);
  int take_all = 0;
  int ties = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int shape = trial % 4;
    const int n = trial % 8 == 0
                      ? static_cast<int>(rng.UniformInt(2, 20))
                      : IndexNode::kCapacity + 1;
    std::vector<Mbb3> boxes;
    for (int i = 0; i < n; ++i) {
      if (i > 0 && rng.Bernoulli(0.15)) {
        // Duplicate box.
        boxes.push_back(boxes[rng.UniformIndex(boxes.size())]);
        continue;
      }
      TPoint a{rng.Uniform(0, 10), {rng.Uniform(0, 10), rng.Uniform(0, 10)}};
      TPoint b{a.t + rng.Uniform(0.01, 1.0),
               {a.p.x + rng.Uniform(-1, 1), a.p.y + rng.Uniform(-1, 1)}};
      if (shape == 1) {
        // Zero-volume segment boxes: stationary objects and moves along
        // one axis only.
        if (rng.Bernoulli(0.5)) b.p.x = a.p.x;
        if (rng.Bernoulli(0.5)) b.p.y = a.p.y;
      } else if (shape == 2) {
        // Unit steps on an integer grid: many exactly equal costs.
        a = {std::floor(a.t), {std::floor(a.p.x), std::floor(a.p.y)}};
        b = {a.t + 1.0, {a.p.x + 1.0, a.p.y}};
      } else if (shape == 3) {
        // Every box the same stationary point: all costs tie at zero.
        a = {1.0, {2.0, 3.0}};
        b = {2.0, {2.0, 3.0}};
      }
      boxes.push_back(Mbb3::OfSegment(a, b));
    }
    // Sweep min_fill up to n / 2, where the take-all branch fires most.
    const int max_fill = n / 2;
    const int min_fill =
        trial % 3 == 0 ? max_fill
                       : static_cast<int>(rng.UniformInt(1, max_fill));
    const std::vector<int> want =
        ReferenceQuadraticSplit(boxes, min_fill, &take_all, &ties);
    ASSERT_EQ(QuadraticSplit(boxes, min_fill), want)
        << "trial " << trial << " n " << n << " min_fill " << min_fill;
  }
  // The sweep reached the branches the equivalence is about.
  EXPECT_GT(take_all, 0);
  EXPECT_GT(ties, 0);
}

TEST(RStarSplitTest, RespectsMinFill) {
  Rng rng(191);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Mbb3> boxes;
    const int n = IndexNode::kCapacity + 1;
    for (int i = 0; i < n; ++i) {
      const TPoint a{rng.Uniform(0, 10), {rng.Uniform(0, 10),
                                          rng.Uniform(0, 10)}};
      const TPoint b{a.t + rng.Uniform(0.01, 1.0),
                     {a.p.x + rng.Uniform(-1, 1), a.p.y + rng.Uniform(-1, 1)}};
      boxes.push_back(Mbb3::OfSegment(a, b));
    }
    const int min_fill = 29;
    // Both the isotropic and the time-weighted measures must produce legal
    // distributions.
    const double weight = trial % 2 == 0 ? 1.0 : 16.0;
    const std::vector<int> group = RStarSplit(boxes, min_fill, weight);
    ASSERT_EQ(group.size(), boxes.size());
    int c0 = 0;
    int c1 = 0;
    for (int g : group) {
      ASSERT_TRUE(g == 0 || g == 1);
      (g == 0 ? c0 : c1)++;
    }
    EXPECT_GE(c0, min_fill);
    EXPECT_GE(c1, min_fill);
    EXPECT_EQ(c0 + c1, n);
  }
}

TEST(RStarSplitTest, SeparatesTwoClusters) {
  // Two well-separated spatial clusters should end up in different groups.
  std::vector<Mbb3> boxes;
  Rng rng(193);
  for (int i = 0; i < 36; ++i) {
    const TPoint a{rng.Uniform(0, 1), {rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    boxes.push_back(Mbb3::OfSegment(a, {a.t + 0.1, a.p}));
  }
  for (int i = 0; i < 37; ++i) {
    const TPoint a{rng.Uniform(0, 1),
                   {rng.Uniform(100, 101), rng.Uniform(100, 101)}};
    boxes.push_back(Mbb3::OfSegment(a, {a.t + 0.1, a.p}));
  }
  const std::vector<int> group = RStarSplit(boxes, 29);
  for (size_t i = 1; i < 36; ++i) EXPECT_EQ(group[i], group[0]);
  for (size_t i = 37; i < 73; ++i) EXPECT_EQ(group[i], group[36]);
  EXPECT_NE(group[0], group[36]);
}

TEST(RStarSplitTest, TimeWeightSeparatesTemporalClusters) {
  // Two temporal clusters whose spatial spread dominates the isotropic
  // margin: the unweighted measure splits on x, the time-weighted one on t.
  std::vector<Mbb3> boxes;
  Rng rng(197);
  for (int i = 0; i < 73; ++i) {
    const double t = (i % 2 == 0) ? rng.Uniform(0.0, 1.0)
                                  : rng.Uniform(10.0, 11.0);
    const double x = rng.Uniform(0.0, 100.0);
    const TPoint a{t, {x, rng.Uniform(0.0, 1.0)}};
    boxes.push_back(Mbb3::OfSegment(a, {a.t + 0.05, a.p}));
  }
  const std::vector<int> weighted = RStarSplit(boxes, 29, 1000.0);
  for (size_t i = 2; i < boxes.size(); i += 2) {
    EXPECT_EQ(weighted[i], weighted[0]) << i;
  }
  for (size_t i = 3; i < boxes.size(); i += 2) {
    EXPECT_EQ(weighted[i], weighted[1]) << i;
  }
  EXPECT_NE(weighted[0], weighted[1]);
}

TEST(ChooseSubtreeRStarTest, MinimizesOverlapEnlargementOverVolume) {
  // Child A is thin (small volume enlargement) but growing it toward the box
  // would sweep across sibling B; child B needs a slightly larger volume
  // enlargement but creates no new overlap. The quadratic rule picks A, the
  // R* leaf-level rule must pick B.
  const auto box3 = [](double xlo, double xhi, double ylo, double yhi) {
    Mbb3 b;
    b.xlo = xlo;
    b.xhi = xhi;
    b.ylo = ylo;
    b.yhi = yhi;
    b.tlo = 0.0;
    b.thi = 1.0;
    return b;
  };
  IndexNode node;
  node.level = 1;
  node.internals.push_back({box3(0.0, 10.0, 0.0, 0.1), 1, 0});   // A
  node.internals.push_back({box3(10.5, 11.5, 0.0, 1.0), 2, 0});  // B
  const Mbb3 target = box3(11.6, 11.7, 0.0, 0.05);
  // dv(A) = 1.7 * 0.1 = 0.17 < dv(B) = 0.2 * 1.0, but enlarging A overlaps
  // B (dov 0.1) while enlarging B overlaps nothing.
  EXPECT_EQ(ChooseSubtreeIndex(node, target), 0);
  EXPECT_EQ(ChooseSubtreeRStarIndex(node, target), 1);

  // A box already contained in a child always goes there: zero enlargement,
  // zero overlap growth.
  EXPECT_EQ(ChooseSubtreeRStarIndex(node, box3(10.6, 10.7, 0.4, 0.5)), 1);
}

class RTreeBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeBuildTest, InvariantsAndCompleteness) {
  const int num_objects = GetParam();
  GstdOptions opt;
  opt.num_objects = num_objects;
  opt.samples_per_object = 60;
  opt.seed = 1000 + static_cast<uint64_t>(num_objects);
  const TrajectoryStore store = GenerateGstd(opt);

  RTree3D tree;
  tree.BuildFrom(store);
  tree.CheckInvariants();

  EXPECT_EQ(tree.EntryCount(), store.TotalSegments());
  EXPECT_GE(tree.height(), 1);
  EXPECT_GT(tree.max_speed(), 0.0);

  std::vector<LeafEntry> collected;
  CollectAll(tree, tree.root(), &collected);
  EXPECT_EQ(static_cast<int64_t>(collected.size()), store.TotalSegments());

  // Every stored segment appears exactly once.
  std::vector<LeafEntry> expected;
  for (const Trajectory& t : store.trajectories()) {
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      expected.push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
    }
  }
  EXPECT_EQ(Keys(collected), Keys(expected));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeBuildTest,
                         ::testing::Values(1, 3, 10, 40));

TEST(RTreeTest, RangeQueryMatchesBruteForce) {
  GstdOptions opt;
  opt.num_objects = 15;
  opt.samples_per_object = 80;
  opt.seed = 5;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BuildFrom(store);

  std::vector<LeafEntry> all;
  CollectAll(tree, tree.root(), &all);

  Rng rng(95);
  for (int trial = 0; trial < 30; ++trial) {
    Mbb3 box;
    box.xlo = rng.Uniform(0.0, 0.8);
    box.xhi = box.xlo + rng.Uniform(0.05, 0.3);
    box.ylo = rng.Uniform(0.0, 0.8);
    box.yhi = box.ylo + rng.Uniform(0.05, 0.3);
    box.tlo = rng.Uniform(0.0, 0.8);
    box.thi = box.tlo + rng.Uniform(0.05, 0.3);

    std::vector<LeafEntry> via_tree;
    RangeQuery(tree, tree.root(), box, &via_tree);
    std::vector<LeafEntry> brute;
    for (const LeafEntry& e : all) {
      if (e.Bounds().Intersects(box)) brute.push_back(e);
    }
    EXPECT_EQ(Keys(via_tree), Keys(brute));
  }
}

TEST(RTreeTest, RangeQueryPrunes) {
  GstdOptions opt;
  opt.num_objects = 30;
  opt.samples_per_object = 200;
  opt.seed = 6;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BuildFrom(store);

  Mbb3 tiny;
  tiny.xlo = 0.4;
  tiny.xhi = 0.45;
  tiny.ylo = 0.4;
  tiny.yhi = 0.45;
  tiny.tlo = 0.4;
  tiny.thi = 0.45;
  tree.ResetAccessCounters();
  std::vector<LeafEntry> out;
  RangeQuery(tree, tree.root(), tiny, &out);
  // A selective query must touch far fewer nodes than the tree holds.
  EXPECT_LT(tree.node_accesses(), tree.NodeCount() / 2);
}

TEST(RTreeTest, PaperBufferConfiguration) {
  GstdOptions opt;
  opt.num_objects = 20;
  opt.samples_per_object = 300;
  opt.seed = 8;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BuildFrom(store);
  tree.ConfigurePaperBuffer();
  const int64_t expected =
      std::clamp<int64_t>(tree.NodeCount() / 10, 1, 1000);
  EXPECT_EQ(static_cast<int64_t>(tree.buffer().capacity()), expected);
  // The tree must stay fully functional behind the small buffer.
  std::vector<LeafEntry> collected;
  CollectAll(tree, tree.root(), &collected);
  EXPECT_EQ(static_cast<int64_t>(collected.size()), store.TotalSegments());
}

TEST(RTreeTest, BulkLoadCompletenessAndInvariants) {
  GstdOptions opt;
  opt.num_objects = 30;
  opt.samples_per_object = 150;
  opt.seed = 11;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BulkLoad(store);
  tree.CheckInvariants();
  EXPECT_EQ(tree.EntryCount(), store.TotalSegments());

  std::vector<LeafEntry> collected;
  CollectAll(tree, tree.root(), &collected);
  std::vector<LeafEntry> expected;
  for (const Trajectory& t : store.trajectories()) {
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      expected.push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
    }
  }
  EXPECT_EQ(Keys(collected), Keys(expected));
}

TEST(RTreeTest, BulkLoadPacksFarTighterThanInsertion) {
  GstdOptions opt;
  opt.num_objects = 20;
  opt.samples_per_object = 400;
  opt.seed = 13;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D inserted;
  inserted.BuildFrom(store);
  RTree3D packed;
  packed.BulkLoad(store);
  // Packed leaves are ~100% full; insertion leaves ~55%.
  EXPECT_LT(packed.NodeCount() * 3, inserted.NodeCount() * 2);
  const int64_t ideal =
      (store.TotalSegments() + IndexNode::kCapacity - 1) /
      IndexNode::kCapacity;
  EXPECT_LE(packed.NodeCount(), ideal + ideal / 8 + 4);
}

TEST(RTreeTest, BulkLoadedTreeAnswersRangeQueries) {
  GstdOptions opt;
  opt.num_objects = 15;
  opt.samples_per_object = 100;
  opt.seed = 17;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BulkLoad(store);

  std::vector<LeafEntry> all;
  CollectAll(tree, tree.root(), &all);
  Rng rng(19);
  for (int trial = 0; trial < 15; ++trial) {
    Mbb3 box;
    box.xlo = rng.Uniform(0.0, 0.7);
    box.xhi = box.xlo + rng.Uniform(0.05, 0.3);
    box.ylo = rng.Uniform(0.0, 0.7);
    box.yhi = box.ylo + rng.Uniform(0.05, 0.3);
    box.tlo = rng.Uniform(0.0, 0.7);
    box.thi = box.tlo + rng.Uniform(0.05, 0.3);
    std::vector<LeafEntry> via_tree;
    RangeQuery(tree, tree.root(), box, &via_tree);
    std::vector<LeafEntry> brute;
    for (const LeafEntry& e : all) {
      if (e.Bounds().Intersects(box)) brute.push_back(e);
    }
    EXPECT_EQ(Keys(via_tree), Keys(brute));
  }
}

TEST(RTreeTest, InsertAfterBulkLoadWorks) {
  GstdOptions opt;
  opt.num_objects = 10;
  opt.samples_per_object = 60;
  opt.seed = 23;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BulkLoad(store);
  const int64_t before = tree.EntryCount();
  for (int i = 0; i < 200; ++i) {
    const double t = 2.0 + i;
    tree.Insert(LeafEntry::Of(999, {t, {0.5, 0.5}}, {t + 1.0, {0.6, 0.6}}));
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.EntryCount(), before + 200);
  std::vector<LeafEntry> collected;
  CollectAll(tree, tree.root(), &collected);
  EXPECT_EQ(static_cast<int64_t>(collected.size()), before + 200);
}

TEST(RTreeDeathTest, BulkLoadRequiresEmptyTree) {
  RTree3D tree;
  tree.Insert(LeafEntry::Of(1, {0.0, {0, 0}}, {1.0, {1, 1}}));
  TrajectoryStore store;
  store.Add(Trajectory(2, {{0.0, {0, 0}}, {1.0, {1, 1}}}));
  EXPECT_DEATH(tree.BulkLoad(store), "empty tree");
}

// The three insertion regimes the structural checker must hold under:
// pure Guttman quadratic, pure R* (ChooseSubtree + split + forced
// reinsertion), and reinsertion-heavy — R* inserts raining onto a bulk-
// loaded tree whose ~100%-full nodes overflow (and therefore reinsert or
// split) almost immediately.
enum class BuildPolicy { kQuadratic, kRStar, kBulkThenRStar };

const char* PolicyName(BuildPolicy policy) {
  switch (policy) {
    case BuildPolicy::kQuadratic: return "Quadratic";
    case BuildPolicy::kRStar: return "RStar";
    case BuildPolicy::kBulkThenRStar: return "BulkThenRStar";
  }
  return "?";
}

TrajectoryIndex::Options PolicyOptions(BuildPolicy policy) {
  TrajectoryIndex::Options options;
  if (policy != BuildPolicy::kQuadratic) {
    options.rtree_variant = RTreeVariant::kRStar;
  }
  return options;
}

class RTreeStructureTest : public ::testing::TestWithParam<BuildPolicy> {};

TEST_P(RTreeStructureTest, BuildSatisfiesStructuralInvariants) {
  const BuildPolicy policy = GetParam();
  GstdOptions opt;
  opt.num_objects = 40;
  opt.samples_per_object = 60;
  opt.seed = 29;
  const TrajectoryStore store = GenerateGstd(opt);

  RTree3D tree{PolicyOptions(policy)};
  if (policy == BuildPolicy::kBulkThenRStar) {
    GstdOptions base_opt = opt;
    base_opt.num_objects = 20;
    base_opt.seed = 31;
    const TrajectoryStore base = GenerateGstd(base_opt);
    tree.BulkLoad(base);
    for (const Trajectory& t : store.trajectories()) {
      for (size_t i = 0; i + 1 < t.size(); ++i) {
        tree.Insert(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
      }
    }
  } else {
    tree.BuildFrom(store);
  }

  tree.CheckInvariants();
  // Bulk-loaded remainder tiles may legally sit below the insertion paths'
  // split minimum.
  testing_util::CheckRTreeStructure(
      tree, /*expect_min_fill=*/policy != BuildPolicy::kBulkThenRStar);

  std::vector<LeafEntry> collected;
  CollectAll(tree, tree.root(), &collected);
  std::vector<LeafEntry> expected;
  for (const Trajectory& t : store.trajectories()) {
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      expected.push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
    }
  }
  if (policy == BuildPolicy::kBulkThenRStar) {
    GstdOptions base_opt = opt;
    base_opt.num_objects = 20;
    base_opt.seed = 31;
    const TrajectoryStore base = GenerateGstd(base_opt);
    for (const Trajectory& t : base.trajectories()) {
      for (size_t i = 0; i + 1 < t.size(); ++i) {
        expected.push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
      }
    }
  }
  EXPECT_EQ(Keys(collected), Keys(expected));
}

TEST_P(RTreeStructureTest, IncrementalInsertThenQueryFuzz) {
  const BuildPolicy policy = GetParam();
  Rng rng(41 + static_cast<uint64_t>(policy));
  RTree3D tree{PolicyOptions(policy)};
  std::vector<LeafEntry> shadow;

  if (policy == BuildPolicy::kBulkThenRStar) {
    GstdOptions opt;
    opt.num_objects = 8;
    opt.samples_per_object = 50;
    opt.seed = 43;
    const TrajectoryStore base = GenerateGstd(opt);
    tree.BulkLoad(base);
    for (const Trajectory& t : base.trajectories()) {
      for (size_t i = 0; i + 1 < t.size(); ++i) {
        shadow.push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
      }
    }
  }

  for (int batch = 0; batch < 25; ++batch) {
    for (int i = 0; i < 30; ++i) {
      const TPoint a{rng.Uniform(0.0, 1.0),
                     {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
      const TPoint b{a.t + rng.Uniform(0.001, 0.05),
                     {a.p.x + rng.Uniform(-0.05, 0.05),
                      a.p.y + rng.Uniform(-0.05, 0.05)}};
      const LeafEntry entry =
          LeafEntry::Of(static_cast<TrajectoryId>(batch * 100 + i), a, b);
      tree.Insert(entry);
      shadow.push_back(entry);
    }
    // Query mid-growth: the tree must stay correct between batches, not
    // just at the end.
    for (int q = 0; q < 3; ++q) {
      Mbb3 box;
      box.xlo = rng.Uniform(0.0, 0.8);
      box.xhi = box.xlo + rng.Uniform(0.05, 0.3);
      box.ylo = rng.Uniform(0.0, 0.8);
      box.yhi = box.ylo + rng.Uniform(0.05, 0.3);
      box.tlo = rng.Uniform(0.0, 0.8);
      box.thi = box.tlo + rng.Uniform(0.05, 0.3);
      std::vector<LeafEntry> via_tree;
      RangeQuery(tree, tree.root(), box, &via_tree);
      std::vector<LeafEntry> brute;
      for (const LeafEntry& e : shadow) {
        if (e.Bounds().Intersects(box)) brute.push_back(e);
      }
      ASSERT_EQ(Keys(via_tree), Keys(brute))
          << PolicyName(policy) << " batch " << batch << " query " << q;
    }
  }

  tree.CheckInvariants();
  testing_util::CheckRTreeStructure(
      tree, /*expect_min_fill=*/policy != BuildPolicy::kBulkThenRStar);
  EXPECT_EQ(tree.EntryCount(), static_cast<int64_t>(shadow.size()));
}

INSTANTIATE_TEST_SUITE_P(BuildPolicies, RTreeStructureTest,
                         ::testing::Values(BuildPolicy::kQuadratic,
                                           BuildPolicy::kRStar,
                                           BuildPolicy::kBulkThenRStar),
                         [](const auto& info) {
                           return PolicyName(info.param);
                         });

TEST(RTreeTest, EmptyTree) {
  RTree3D tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root(), kInvalidPageId);
  EXPECT_EQ(tree.height(), 0);
  tree.CheckInvariants();  // no-op, must not crash
}

TEST(RTreeTest, SingleEntryTree) {
  RTree3D tree;
  tree.Insert(LeafEntry::Of(7, {0.0, {1, 1}}, {1.0, {2, 2}}));
  tree.CheckInvariants();
  EXPECT_EQ(tree.height(), 1);
  const NodeRef root = tree.ReadNode(tree.root());
  ASSERT_EQ(root->leaves.size(), 1u);
  EXPECT_EQ(root->leaves[0].traj_id, 7);
}

}  // namespace
}  // namespace mst
