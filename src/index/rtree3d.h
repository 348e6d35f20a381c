// 3D R-tree over trajectory segments (Guttman insertion with quadratic
// split), one of the two general-purpose spatiotemporal indexes the paper
// runs BFMST on (its ref [19]).

#ifndef MST_INDEX_RTREE3D_H_
#define MST_INDEX_RTREE3D_H_

#include <string>
#include <utility>
#include <vector>

#include "src/index/node.h"
#include "src/index/trajectory_index.h"

namespace mst {

/// Classic R-tree treating segments as 3D (x, y, t) boxes. The insertion
/// policy is selected by Options::rtree_variant: Guttman quadratic split with
/// (volume enlargement, margin enlargement, volume) ChooseSubtree by default
/// (the margin tiebreak matters because degenerate axis-parallel segment MBBs
/// have zero volume), or the R*-tree construction path (overlap-minimizing
/// leaf-level ChooseSubtree, margin-based splits, forced reinsertion).
class RTree3D : public TrajectoryIndex {
 public:
  /// Minimum node fill after a split, as a fraction of capacity (Guttman's
  /// recommended 40 %).
  static constexpr double kMinFillFraction = 0.4;

  /// Fraction of an overflowing node's entries evicted by the R* forced
  /// reinsertion (Beckmann et al.'s recommended p = 30 %).
  static constexpr double kReinsertFraction = 0.3;

  explicit RTree3D(const Options& options = Options());

  std::string name() const override { return "3D R-tree"; }

  /// Sort-Tile-Recursive bulk loading (Leutenegger et al.): packs all
  /// segments of `store` into ~100 %-full leaves by tiling on (t, x, y),
  /// then packs the upper levels the same way. Produces a far smaller tree
  /// than one-by-one insertion (no quadratic-split dead space); the result
  /// remains a perfectly ordinary R-tree — later Insert() calls work.
  /// Must be called on an empty tree (checked).
  void BulkLoad(const TrajectoryStore& store);

  /// Entry-level form of the same STR packing, for callers that already hold
  /// a segment stream rather than a store (the ingest merger bulk-loads both
  /// delta snapshots and merged mains from entry vectors). The vector is
  /// consumed (reordered in place by the tiling sorts).
  void BulkLoad(std::vector<LeafEntry> entries);

 protected:
  void InsertEntry(const LeafEntry& entry) override;

 private:
  struct Step {
    PageId node;
    int child_idx;
  };

  // One deferred insertion produced by forced reinsertion: a leaf entry
  // (target_level 0) or a routing entry for a whole subtree (target_level is
  // the level of the node that must absorb it).
  struct Pending {
    Mbb3 box;
    int target_level = 0;
    LeafEntry leaf{};
    InternalEntry internal{};
  };

  // Index of the child of `node` best suited to receive `box`.
  static int ChooseSubtree(const IndexNode& node, const Mbb3& box);

  // Expands the MBB of the routing entries along `path` by `box`, bottom-up.
  void ExpandPath(const std::vector<Step>& path, const Mbb3& box);

  // Guttman insertion: ChooseSubtree descent + quadratic split propagation.
  void QuadraticInsert(const LeafEntry& entry);

  // The root itself split: grows the tree by a new root at `level` over the
  // old root (bounds `left_box`) and its new sibling `right_id`.
  void GrowRoot(const Mbb3& left_box, const Mbb3& right_box, PageId right_id,
                int level);

  // R* insertion of one leaf entry: drives the Pending queue that forced
  // reinsertion refills, with the once-per-level overflow guard scoped to
  // this call (one user-visible Insert).
  void RStarInsert(const LeafEntry& entry);

  // Places one pending entry at its target level; on overflow either evicts
  // entries onto `queue` (first overflow at that level, per `reinserted`) or
  // R*-splits and propagates upward.
  void RStarInsertPending(const Pending& pending, std::vector<Pending>* queue,
                          std::vector<bool>* reinserted);

  // Rewrites the routing MBBs along `path` to the exact bounds of each child
  // (bottom-up). Unlike ExpandPath this also shrinks — required after forced
  // reinsertion removes entries from a node.
  void TightenPath(const std::vector<Step>& path);

  const RTreeVariant variant_;
  const double time_weight_;
};

/// Guttman quadratic split of `boxes` (size kCapacity + 1) into two groups of
/// at least `min_fill` each. Returns group membership: result[i] is 0 or 1.
/// Exposed for direct unit testing.
std::vector<int> QuadraticSplit(const std::vector<Mbb3>& boxes, int min_fill);

/// Index of the child of internal `node` best suited to absorb `box` under
/// the (volume enlargement, margin enlargement, volume) ordering. Shared by
/// the R-tree-style insertion paths (3D R-tree and STR-tree).
int ChooseSubtreeIndex(const IndexNode& node, const Mbb3& box);

/// R* split of `boxes` into two groups of at least `min_fill` each: per-axis
/// (t, x, y) sort by lower then upper coordinate, margin-sum axis choice,
/// then the distribution over the legal split positions with minimum overlap
/// volume (ties: overlap margin, then total volume). `time_weight` scales
/// the time axis for the margin-based decisions (volume comparisons are
/// scale-invariant); 1.0 is the isotropic textbook measure. Returns group
/// membership by original index: result[i] is 0 or 1.
/// Exposed for direct unit testing.
std::vector<int> RStarSplit(const std::vector<Mbb3>& boxes, int min_fill,
                            double time_weight = 1.0);

/// R* leaf-level ChooseSubtree: index of the child of `node` (whose children
/// are leaves) whose enlargement by `box` increases its overlap with the
/// sibling entries the least, with (overlap-volume growth, overlap-margin
/// growth, volume enlargement, margin enlargement, volume) tie-breaks — the
/// margin refinements handle degenerate zero-volume segment MBBs.
/// Exposed for direct unit testing.
int ChooseSubtreeRStarIndex(const IndexNode& node, const Mbb3& box);

}  // namespace mst

#endif  // MST_INDEX_RTREE3D_H_
