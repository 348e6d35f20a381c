#include "src/index/trajectory_index.h"

#include <algorithm>
#include <vector>

#include "src/util/check.h"

namespace mst {
namespace {

// Per-thread node-access tally backing ThreadNodeAccesses(). A query runs on
// one thread, so the before/after delta is exactly its own access count even
// when other threads traverse the same index concurrently.
thread_local int64_t tls_node_accesses = 0;

}  // namespace

int64_t TrajectoryIndex::ThreadNodeAccesses() { return tls_node_accesses; }

TrajectoryIndex::TrajectoryIndex(const Options& options)
    : file_(),
      buffer_(&file_, options.build_buffer_pages),
      node_cache_(options.node_cache_nodes) {}

TrajectoryIndex::~TrajectoryIndex() = default;

void TrajectoryIndex::Insert(const LeafEntry& entry) {
  const ArenaSession session(this);
  NoteInsert(entry);
  InsertEntry(entry);
}

void TrajectoryIndex::BuildFrom(const TrajectoryStore& store) {
  // Global temporal arrival order: all objects move simultaneously, so their
  // segments reach the MOD interleaved by segment start time.
  struct Pending {
    double t0;
    uint32_t traj;
    uint32_t seg;
  };
  std::vector<Pending> arrivals;
  arrivals.reserve(static_cast<size_t>(store.TotalSegments()));
  const auto& trajs = store.trajectories();
  for (uint32_t ti = 0; ti < trajs.size(); ++ti) {
    const Trajectory& t = trajs[ti];
    for (uint32_t si = 0; si + 1 < t.size(); ++si) {
      arrivals.push_back({t.sample(si).t, ti, si});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Pending& a, const Pending& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.traj != b.traj) return a.traj < b.traj;
              return a.seg < b.seg;
            });
  const ArenaSession session(this);
  for (const Pending& p : arrivals) {
    const Trajectory& t = trajs[p.traj];
    Insert(LeafEntry::Of(t.id(), t.sample(p.seg), t.sample(p.seg + 1)));
  }
}

NodeRef TrajectoryIndex::ReadNode(PageId id) const {
  // Count the logical access unconditionally: Table-2/Fig-10 node-access
  // numbers must be byte-identical whether the node cache is on or off.
  node_accesses_.fetch_add(1, std::memory_order_relaxed);
  ++tls_node_accesses;
  uint64_t version = 0;
  if (NodeRef cached = node_cache_.Lookup(id, &version)) return cached;
  const PageGuard guard = buffer_.Pin(id);
  NodeRef node = std::make_shared<const IndexNode>(IndexNode::Decode(*guard, id));
  node_cache_.Insert(id, node, version);
  return node;
}

TrajectoryIndex::LeafPageRead TrajectoryIndex::ReadLeafColumns(
    PageId id) const {
  LeafPageRead out;
  out.node = ReadNode(id);
  out.view = out.node->leaves.View();
  out.next_leaf = out.node->next_leaf;
  return out;
}

TrajectoryIndex::ArenaSession::ArenaSession(TrajectoryIndex* index)
    : index_(index) {
  // Pages are about to change behind the buffer's back: write back and drop
  // its frames so no stale copy survives the session.
  if (index_->arena_depth_++ == 0) index_->buffer_.Clear();
}

TrajectoryIndex::ArenaSession::~ArenaSession() {
  const bool outermost = --index_->arena_depth_ == 0;
  index_->TrimArena(outermost ? 0 : index_->buffer_.capacity());
}

IndexNode& TrajectoryIndex::MutableNode(PageId id) {
  MST_CHECK_MSG(arena_depth_ > 0, "node staged outside an arena session");
  const auto slot = static_cast<size_t>(id);
  if (slot >= arena_pos_.size()) arena_pos_.resize(slot + 1, arena_.end());
  auto& pos = arena_pos_[slot];
  if (pos == arena_.end()) {
    file_.Read(id, &arena_page_);
    arena_.push_front(IndexNode::Decode(arena_page_, id));
    pos = arena_.begin();
  } else if (pos != arena_.begin()) {
    arena_.splice(arena_.begin(), arena_, pos);
  }
  return *pos;
}

IndexNode& TrajectoryIndex::AllocateNode(int32_t level) {
  MST_CHECK_MSG(arena_depth_ > 0, "node staged outside an arena session");
  const PageId id = file_.Allocate();
  const auto slot = static_cast<size_t>(id);
  if (slot >= arena_pos_.size()) arena_pos_.resize(slot + 1, arena_.end());
  IndexNode& node = arena_.emplace_front();
  node.self = id;
  node.level = level;
  arena_pos_[slot] = arena_.begin();
  return node;
}

void TrajectoryIndex::TrimArena(size_t limit) {
  while (arena_.size() > limit) {
    const IndexNode& node = arena_.back();
    if (arena_depth_ == 0) {
      // No session is open any more: leave the pages in the buffer, as warm
      // as a build that wrote through it, for the readers that come next.
      PageGuard guard = buffer_.PinForOverwrite(node.self);
      node.EncodeTo(guard.mutable_page());
    } else {
      // Mid-session the emptied buffer is bypassed, so the arena takes its
      // place rather than adding to it.
      node.EncodeTo(&arena_page_);
      file_.Write(node.self, arena_page_);
    }
    // Bump the page version after the bytes change: a decode of the old
    // bytes observed the old version and will fail to publish.
    node_cache_.Invalidate(node.self);
    arena_pos_[static_cast<size_t>(node.self)] = arena_.end();
    arena_.pop_back();
  }
}

void TrajectoryIndex::ExpandAncestorsViaParents(PageId node_id,
                                                const Mbb3& box) {
  PageId cur = node_id;
  PageId parent_id = MutableNode(node_id).parent;
  while (parent_id != kInvalidPageId) {
    IndexNode& parent = MutableNode(parent_id);
    bool found = false;
    for (InternalEntry& e : parent.internals) {
      if (e.child == cur) {
        e.mbb.Expand(box);
        found = true;
        break;
      }
    }
    MST_CHECK_MSG(found, "broken parent pointer");
    cur = parent_id;
    parent_id = parent.parent;
  }
}

TrajectoryIndex::TrajectoryVersionShard& TrajectoryIndex::VersionShardFor(
    TrajectoryId id) const {
  return traj_versions_[static_cast<uint64_t>(id) % kTrajectoryVersionShards];
}

uint64_t TrajectoryIndex::TrajectoryWriteVersion(TrajectoryId id) const {
  TrajectoryVersionShard& shard = VersionShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.versions.find(id);
  return it == shard.versions.end() ? 0 : it->second;
}

void TrajectoryIndex::NoteInsert(const LeafEntry& entry) {
  ++entry_count_;
  max_speed_ = std::max(max_speed_, entry.Speed());
  // Bump the trajectory's write version so cross-query cached DISSIM values
  // for it can never be served again (cf. TrimArena → NodeCache::Invalidate
  // for pages).
  TrajectoryVersionShard& shard = VersionShardFor(entry.traj_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.versions[entry.traj_id];
}

void TrajectoryIndex::ConfigurePaperBuffer() {
  const int64_t pages = NodeCount();
  const int64_t target =
      std::clamp<int64_t>(pages / 10, /*lo=*/1, /*hi=*/1000);
  buffer_.Clear();
  buffer_.SetCapacity(static_cast<size_t>(target));
  node_cache_.Clear();
}

void TrajectoryIndex::CheckSubtree(PageId id, int expected_level,
                                   const Mbb3* parent_box,
                                   PageId parent_id) const {
  const NodeRef node = ReadNode(id);
  MST_CHECK_MSG(node->level == expected_level, "node level mismatch");
  MST_CHECK(node->Count() <= IndexNode::kCapacity);
  if (parent_box != nullptr) {
    MST_CHECK_MSG(parent_box->Contains(node->Bounds()),
                  "parent MBB does not contain child contents");
  }
  if (node->parent != kInvalidPageId) {
    MST_CHECK_MSG(node->parent == parent_id, "stale parent pointer");
  }
  if (node->IsLeaf()) {
    for (const LeafEntry& e : node->leaves) {
      MST_CHECK(e.t0 < e.t1);
      MST_CHECK(e.traj_id != kInvalidTrajectoryId);
    }
    return;
  }
  MST_CHECK_MSG(node->Count() > 0, "empty internal node");
  for (const InternalEntry& e : node->internals) {
    MST_CHECK(e.child != kInvalidPageId);
    CheckSubtree(e.child, expected_level - 1, &e.mbb, id);
  }
}

void TrajectoryIndex::CheckInvariants() const {
  if (empty()) return;
  CheckSubtree(root_, height_ - 1, nullptr, kInvalidPageId);
}

}  // namespace mst
