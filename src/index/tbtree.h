// TB-tree (Trajectory-Bundle tree, the paper's ref [13]): an R-tree-like
// index whose leaves each contain segments of a *single* trajectory, with
// the leaves of one trajectory chained by prev/next pointers. New segments
// append to the trajectory's tail leaf; when it fills up, a fresh leaf is
// attached at the rightmost path of the tree (B-tree-style growth), which
// preserves temporal ordering of leaf entries without per-query sorting.

#ifndef MST_INDEX_TBTREE_H_
#define MST_INDEX_TBTREE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/index/node.h"
#include "src/index/trajectory_index.h"

namespace mst {

/// TB-tree with parent pointers in node headers (appends to a trajectory's
/// tail leaf update ancestor MBBs bottom-up through them).
class TBTree : public TrajectoryIndex {
 public:
  explicit TBTree(const Options& options = Options());

  std::string name() const override { return "TB-tree"; }

  /// First leaf page of the trajectory's chain; kInvalidPageId if unknown.
  PageId HeadLeaf(TrajectoryId id) const;

  /// Tail (most recent) leaf page of the trajectory's chain.
  PageId TailLeaf(TrajectoryId id) const;

  /// Retrieves the full trajectory of `id` by walking its leaf chain —
  /// the dedicated trajectory-retrieval access path of the TB-tree design.
  /// Returns the segments in temporal order.
  std::vector<LeafEntry> RetrieveTrajectory(TrajectoryId id) const;

  bool SupportsTrajectoryFetch() const override { return true; }
  PageId TrajectoryChainHead(TrajectoryId id) const override {
    return HeadLeaf(id);
  }

  /// TB-specific structural checks (single-trajectory leaves, chain
  /// consistency, parent pointers). Aborts on violation; for tests.
  void CheckTBInvariants() const;

 protected:
  /// Appends a segment. Segments of one trajectory must arrive in temporal
  /// order (checked), which is how a MOD receives them.
  void InsertEntry(const LeafEntry& entry) override;

 private:
  // Attaches node `child` (with bounds `box`, at tree level `child_level`)
  // at the rightmost position of level child_level + 1, growing the tree if
  // needed.
  void AttachRight(PageId child, const Mbb3& box, int child_level);

  // Expands ancestor MBBs by `box`, starting from `node`'s routing entry in
  // its parent and walking parent pointers to the root.
  void ExpandAncestors(PageId node, const Mbb3& box);

  // Rightmost node per level (level 1 = parents of leaves). Rebuilt never —
  // maintained incrementally; levels index this vector directly.
  std::vector<PageId> rightmost_;

  struct Chain {
    PageId head = kInvalidPageId;
    PageId tail = kInvalidPageId;
    double last_t1 = 0.0;  // temporal-order enforcement
  };
  std::unordered_map<TrajectoryId, Chain> chains_;
};

}  // namespace mst

#endif  // MST_INDEX_TBTREE_H_
