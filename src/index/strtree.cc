#include "src/index/strtree.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/index/rtree3d.h"
#include "src/util/check.h"

namespace mst {
namespace {

constexpr int kMinFill =
    static_cast<int>(IndexNode::kCapacity * RTree3D::kMinFillFraction);

void SortChronologically(std::vector<LeafEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              return a.traj_id < b.traj_id;
            });
}

}  // namespace

STRTree::STRTree(const Options& options) : TrajectoryIndex(options) {}

PageId STRTree::TailLeaf(TrajectoryId id) const {
  const auto it = chains_.find(id);
  return it == chains_.end() ? kInvalidPageId : it->second.tail;
}

void STRTree::FixTailsAfterLeafSplit(const IndexNode& a, const IndexNode& b,
                                     PageId old_leaf) {
  // For each trajectory present, the leaf now holding its newest segment.
  std::map<TrajectoryId, std::pair<double, PageId>> best;
  for (const IndexNode* node : {&a, &b}) {
    for (const LeafEntry& e : node->leaves) {
      auto [it, inserted] =
          best.try_emplace(e.traj_id, e.t1, node->self);
      if (!inserted && e.t1 > it->second.first) {
        it->second = {e.t1, node->self};
      }
    }
  }
  for (const auto& [id, where] : best) {
    const auto it = chains_.find(id);
    if (it != chains_.end() && it->second.tail == old_leaf) {
      it->second.tail = where.second;
    }
  }
}

IndexNode& STRTree::SplitInternal(IndexNode& node,
                                  const InternalEntry& extra) {
  std::vector<InternalEntry> entries = node.internals;
  entries.push_back(extra);
  std::vector<Mbb3> boxes;
  boxes.reserve(entries.size());
  for (const InternalEntry& e : entries) boxes.push_back(e.mbb);
  const std::vector<int> split = QuadraticSplit(boxes, kMinFill);

  IndexNode& sibling = AllocateNode(node.level);
  sibling.parent = node.parent;
  node.internals.clear();
  for (size_t i = 0; i < entries.size(); ++i) {
    (split[i] == 0 ? node.internals : sibling.internals)
        .push_back(entries[i]);
  }
  // Rewire the parent pointers of every child of both nodes (children moved
  // to the sibling, and `extra.child` whose parent was never set).
  for (const IndexNode* parent : {&node, &sibling}) {
    for (const InternalEntry& e : parent->internals) {
      MutableNode(e.child).parent = parent->self;
    }
  }
  return sibling;
}

void STRTree::AttachSplit(PageId left_id, const Mbb3& left_box,
                          PageId right_id, const Mbb3& right_box,
                          PageId parent_id, const Mbb3& box_add) {
  Mbb3 lbox = left_box;
  Mbb3 rbox = right_box;
  PageId left = left_id;
  PageId right = right_id;
  PageId parent = parent_id;

  while (true) {
    if (parent == kInvalidPageId) {
      // The split node was the root: grow the tree.
      IndexNode& left_node = MutableNode(left);
      IndexNode& new_root = AllocateNode(left_node.level + 1);
      new_root.internals.push_back({lbox, left, 0});
      new_root.internals.push_back({rbox, right, 0});
      left_node.parent = new_root.self;
      MutableNode(right).parent = new_root.self;
      set_root(new_root.self);
      set_height(height() + 1);
      return;
    }

    IndexNode& pnode = MutableNode(parent);
    bool found = false;
    for (InternalEntry& e : pnode.internals) {
      if (e.child == left) {
        e.mbb = lbox;
        found = true;
        break;
      }
    }
    MST_CHECK_MSG(found, "split child missing from its parent");
    if (!pnode.IsFull()) {
      pnode.internals.push_back({rbox, right, 0});
      MutableNode(right).parent = parent;
      ExpandAncestorsViaParents(parent, box_add);
      return;
    }
    // Parent overflows in turn.
    const IndexNode& sibling = SplitInternal(pnode, {rbox, right, 0});
    lbox = pnode.Bounds();
    rbox = sibling.Bounds();
    left = pnode.self;
    right = sibling.self;
    parent = pnode.parent;
  }
}

PageId STRTree::PreservationOverflow(IndexNode& leaf, const LeafEntry& entry) {
  const Mbb3 box = entry.Bounds();

  // Partition the full leaf's entries into the appending trajectory's run
  // and the rest.
  std::vector<LeafEntry> mine;
  std::vector<LeafEntry> others;
  for (const LeafEntry& e : leaf.leaves) {
    (e.traj_id == entry.traj_id ? mine : others).push_back(e);
  }

  IndexNode& fresh = AllocateNode(0);
  fresh.parent = leaf.parent;
  if (others.empty()) {
    // The leaf is already reserved for this trajectory and full: leave it
    // densely packed and continue the trajectory in a fresh leaf (the same
    // move the TB-tree makes).
    fresh.leaves.push_back(entry);
    AttachSplit(leaf.self, leaf.Bounds(), fresh.self, box, leaf.parent, box);
    return fresh.self;
  }

  // Shared leaf: reserve a leaf for this trajectory by extracting its run
  // (plus the new segment); the other trajectories keep the old page.
  SortChronologically(&mine);
  fresh.leaves = std::move(mine);
  fresh.leaves.push_back(entry);
  // `mine` came from a leaf that also held `others`, so with the appended
  // segment the reserved leaf holds at most kCapacity entries.
  MST_CHECK(fresh.Count() <= IndexNode::kCapacity);
  leaf.leaves = std::move(others);
  FixTailsAfterLeafSplit(leaf, fresh, leaf.self);
  // The old leaf's MBB may have shrunk; AttachSplit installs its exact new
  // box in the parent, and `box` expands the surviving ancestors.
  AttachSplit(leaf.self, leaf.Bounds(), fresh.self, fresh.Bounds(),
              leaf.parent, box);
  return fresh.self;
}

void STRTree::StandardInsert(const LeafEntry& entry) {
  const Mbb3 box = entry.Bounds();
  Chain& chain = chains_[entry.traj_id];

  if (empty()) {
    IndexNode& leaf = AllocateNode(0);
    leaf.leaves.push_back(entry);
    set_root(leaf.self);
    set_height(1);
    chain.tail = leaf.self;
    chain.last_t1 = entry.t1;
    return;
  }

  // Plain R-tree descent (no path stack needed: parent pointers exist).
  IndexNode* node = &MutableNode(root());
  while (!node->IsLeaf()) {
    node = &MutableNode(node->internals[static_cast<size_t>(
                                            ChooseSubtreeIndex(*node, box))]
                            .child);
  }

  PageId entry_leaf;
  if (!node->IsFull()) {
    node->leaves.push_back(entry);
    ExpandAncestorsViaParents(node->self, box);
    entry_leaf = node->self;
  } else {
    std::vector<LeafEntry> all = node->leaves.ToVector();
    all.push_back(entry);
    std::vector<Mbb3> boxes;
    boxes.reserve(all.size());
    for (const LeafEntry& e : all) boxes.push_back(e.Bounds());
    const std::vector<int> split = QuadraticSplit(boxes, kMinFill);

    IndexNode& right = AllocateNode(0);
    right.parent = node->parent;
    node->leaves.clear();
    for (size_t i = 0; i < all.size(); ++i) {
      (split[i] == 0 ? node->leaves : right.leaves).push_back(all[i]);
    }
    FixTailsAfterLeafSplit(*node, right, node->self);
    entry_leaf = split.back() == 0 ? node->self : right.self;
    AttachSplit(node->self, node->Bounds(), right.self, right.Bounds(),
                node->parent, box);
  }

  if (chain.tail == kInvalidPageId || entry.t1 >= chain.last_t1) {
    chain.tail = entry_leaf;
    chain.last_t1 = entry.t1;
  }
}

void STRTree::InsertEntry(const LeafEntry& entry) {
  const Mbb3 box = entry.Bounds();
  Chain& chain = chains_[entry.traj_id];

  // Trajectory preservation: append next to the predecessor segment.
  if (chain.tail != kInvalidPageId && entry.t0 >= chain.last_t1) {
    IndexNode& leaf = MutableNode(chain.tail);
    MST_DCHECK(leaf.IsLeaf());
    if (!leaf.IsFull()) {
      leaf.leaves.push_back(entry);
      ExpandAncestorsViaParents(leaf.self, box);
      chain.tail = leaf.self;
      chain.last_t1 = entry.t1;
      return;
    }
    // Full predecessor leaf: reserve a leaf for the trajectory (or open a
    // fresh one if the leaf was already reserved) and continue there.
    chain.tail = PreservationOverflow(leaf, entry);
    chain.last_t1 = entry.t1;
    return;
  }

  StandardInsert(entry);
}

double STRTree::PreservationRatio() const {
  if (empty()) return 1.0;
  // Gather (trajectory, t0) -> leaf for every entry by one traversal.
  struct Placed {
    TrajectoryId id;
    double t0;
    PageId leaf;
  };
  std::vector<Placed> placed;
  std::vector<PageId> stack = {root()};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    const NodeRef node = ReadNode(page);
    if (node->IsLeaf()) {
      for (const LeafEntry& e : node->leaves) {
        placed.push_back({e.traj_id, e.t0, page});
      }
    } else {
      for (const InternalEntry& e : node->internals) stack.push_back(e.child);
    }
  }
  std::sort(placed.begin(), placed.end(), [](const Placed& a, const Placed& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.t0 < b.t0;
  });
  int64_t pairs = 0;
  int64_t together = 0;
  for (size_t i = 1; i < placed.size(); ++i) {
    if (placed[i].id != placed[i - 1].id) continue;
    ++pairs;
    if (placed[i].leaf == placed[i - 1].leaf) ++together;
  }
  return pairs > 0 ? static_cast<double>(together) / static_cast<double>(pairs)
                   : 1.0;
}

}  // namespace mst
