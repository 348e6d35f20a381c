// STR-tree (Spatio-Temporal R-tree, Pfoser/Jensen/Theodoridis — the
// paper's ref [13], alongside the TB-tree): an R-tree whose insertion
// strategy trades pure spatial discrimination for *trajectory
// preservation* — a new segment is appended to the leaf holding its
// predecessor segment when possible. When that leaf fills up, the
// trajectory's run is *extracted* into a leaf reserved for it (the
// "reserving nodes for trajectories" idea of the STR-tree design); a
// reserved leaf that fills simply hands the trajectory a fresh leaf,
// leaving the full one densely packed. BFMST runs on it unchanged, which is
// the point of the paper's "any member of the R-tree family" claim (§4.5);
// this implementation adds the third family member the paper names but
// does not plot.
//
// Unlike the plain 3D R-tree, the STR-tree maintains parent pointers in
// node headers (preservation appends need the leaf-to-root path without a
// descent), so quadratic splits here also rewire the parent pointers of
// moved children.

#ifndef MST_INDEX_STRTREE_H_
#define MST_INDEX_STRTREE_H_

#include <string>
#include <unordered_map>

#include "src/index/node.h"
#include "src/index/trajectory_index.h"

namespace mst {

/// Trajectory-preserving R-tree.
class STRTree : public TrajectoryIndex {
 public:
  explicit STRTree(const Options& options = Options());

  std::string name() const override { return "STR-tree"; }

  /// Leaf currently holding the trajectory's most recent segment;
  /// kInvalidPageId when unknown.
  PageId TailLeaf(TrajectoryId id) const;

  /// Fraction of adjacent same-trajectory segment pairs co-located in one
  /// leaf — the "trajectory preservation" the structure optimizes for.
  /// O(nodes); for tests and ablations.
  double PreservationRatio() const;

 protected:
  void InsertEntry(const LeafEntry& entry) override;

 private:
  // Inserts `entry` along the standard R-tree descent path (ChooseSubtree +
  // quadratic splits), keeping parent pointers and the tail-leaf map
  // consistent.
  void StandardInsert(const LeafEntry& entry);

  // Handles a preservation append into the full leaf `leaf`: either
  // extracts the trajectory's segments into a leaf reserved for it (shared
  // leaf) or opens a fresh leaf for the trajectory (already-dedicated
  // leaf). Returns the id of the leaf that received `entry`.
  PageId PreservationOverflow(IndexNode& leaf, const LeafEntry& entry);

  // Attaches a freshly created node (`child`, bounds `box`) under `parent_id`
  // (the parent of the node it was split from), propagating overflow splits
  // to the root. `box_add` is the MBB of the newly inserted entry, used to
  // expand the surviving ancestors.
  void AttachSplit(PageId left_id, const Mbb3& left_box, PageId right_id,
                   const Mbb3& right_box, PageId parent_id,
                   const Mbb3& box_add);

  // Quadratic split of internal node `node` absorbing `extra`; fixes the
  // parent pointers of moved children. Returns the new sibling.
  IndexNode& SplitInternal(IndexNode& node, const InternalEntry& extra);

  // Re-points tail-leaf map entries after leaf `old_leaf` redistributed its
  // entries between `a` and `b`.
  void FixTailsAfterLeafSplit(const IndexNode& a, const IndexNode& b,
                              PageId old_leaf);

  struct Chain {
    PageId tail = kInvalidPageId;
    double last_t1 = 0.0;
  };
  std::unordered_map<TrajectoryId, Chain> chains_;
};

}  // namespace mst

#endif  // MST_INDEX_STRTREE_H_
