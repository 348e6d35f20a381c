// Identity tests for the decoded-node arena every insert path stages nodes
// in. One session spanning a whole BuildFrom, one session per bare Insert,
// and an arena small enough to evict and reload nodes mid-build must all
// leave the same pages behind, because every split and placement decision
// reads only node contents.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "tests/test_util.h"

namespace mst {
namespace {

enum class Backend { kQuadratic, kRStar, kTBTree, kSTRTree };

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kQuadratic: return "Quadratic";
    case Backend::kRStar: return "RStar";
    case Backend::kTBTree: return "TBTree";
    case Backend::kSTRTree: return "STRTree";
  }
  return "?";
}

std::unique_ptr<TrajectoryIndex> MakeIndex(Backend backend,
                                           TrajectoryIndex::Options options) {
  switch (backend) {
    case Backend::kQuadratic:
      return std::make_unique<RTree3D>(options);
    case Backend::kRStar:
      options.rtree_variant = RTreeVariant::kRStar;
      return std::make_unique<RTree3D>(options);
    case Backend::kTBTree:
      return std::make_unique<TBTree>(options);
    case Backend::kSTRTree:
      return std::make_unique<STRTree>(options);
  }
  return nullptr;
}

TrajectoryStore Store(int objects, int samples, uint64_t seed) {
  GstdOptions opt;
  opt.num_objects = objects;
  opt.samples_per_object = samples;
  opt.seed = seed;
  return GenerateGstd(opt);
}

// The arrival order BuildFrom inserts in: segment start time, then store
// position, then segment index.
std::vector<LeafEntry> ArrivalOrder(const TrajectoryStore& store) {
  struct Arrival {
    double t0;
    size_t traj;
    size_t seg;
  };
  std::vector<Arrival> arrivals;
  const auto& trajs = store.trajectories();
  for (size_t ti = 0; ti < trajs.size(); ++ti) {
    for (size_t si = 0; si + 1 < trajs[ti].size(); ++si) {
      arrivals.push_back({trajs[ti].sample(si).t, ti, si});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.traj != b.traj) return a.traj < b.traj;
              return a.seg < b.seg;
            });
  std::vector<LeafEntry> out;
  out.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    const Trajectory& t = trajs[a.traj];
    out.push_back(LeafEntry::Of(t.id(), t.sample(a.seg), t.sample(a.seg + 1)));
  }
  return out;
}

// Expects both indexes to hold the same tree page for page: the same root,
// height and page count, the same bytes in every page file slot, and the
// same node through the read path (which would expose a stale buffer frame
// or cached node).
void ExpectSameTree(TrajectoryIndex& want, TrajectoryIndex& got) {
  ASSERT_EQ(got.root(), want.root());
  ASSERT_EQ(got.height(), want.height());
  ASSERT_EQ(got.NodeCount(), want.NodeCount());
  EXPECT_EQ(got.EntryCount(), want.EntryCount());
  want.buffer().Flush();
  got.buffer().Flush();
  Page a;
  Page b;
  for (PageId id = 0; id < want.NodeCount(); ++id) {
    want.file().Read(id, &a);
    got.file().Read(id, &b);
    ASSERT_EQ(a.bytes, b.bytes) << "page " << id;
    got.ReadNode(id)->EncodeTo(&b);
    ASSERT_EQ(a.bytes, b.bytes) << "page " << id << " through ReadNode";
  }
}

void CheckStructure(Backend backend, const TrajectoryIndex& index) {
  index.CheckInvariants();
  if (backend == Backend::kQuadratic || backend == Backend::kRStar) {
    testing_util::CheckRTreeStructure(index);
  }
}

class InsertArenaTest : public ::testing::TestWithParam<Backend> {};

TEST_P(InsertArenaTest, BuildFromMatchesOneInsertAtATime) {
  const Backend backend = GetParam();
  const TrajectoryStore store = Store(40, 60, 5);

  const auto built = MakeIndex(backend, {});
  built->BuildFrom(store);

  // Bare inserts, each its own session, with full read traversals between
  // them: with the node cache off those reads fill the page buffer, which
  // the next insert must not leave stale.
  TrajectoryIndex::Options uncached;
  uncached.node_cache_nodes = 0;
  const auto inserted = MakeIndex(backend, uncached);
  const std::vector<LeafEntry> order = ArrivalOrder(store);
  for (size_t i = 0; i < order.size(); ++i) {
    inserted->Insert(order[i]);
    if (i % 250 == 0) {
      for (PageId id = 0; id < inserted->NodeCount(); ++id) {
        inserted->ReadNode(id);
      }
    }
  }

  CheckStructure(backend, *built);
  CheckStructure(backend, *inserted);
  ExpectSameTree(*built, *inserted);
}

TEST_P(InsertArenaTest, SmallArenaEvictsAndReloadsWithoutMovingTheTree) {
  const Backend backend = GetParam();
  const TrajectoryStore store = Store(150, 100, 8);

  const auto roomy = MakeIndex(backend, {});
  roomy->BuildFrom(store);
  TrajectoryIndex::Options tight;
  tight.build_buffer_pages = 16;
  const auto small = MakeIndex(backend, tight);
  small->BuildFrom(store);
  ASSERT_GT(small->NodeCount(), 200) << "the tree must dwarf the arena";

  // The roomy arena never evicts: every node goes from the arena straight
  // into the buffer when the build's session closes, and the page file is
  // neither read nor written. The small one must have evicted nodes to the
  // page file and decoded them again from it.
  const IoStats roomy_io = roomy->file().stats();
  EXPECT_EQ(roomy_io.physical_reads, 0);
  EXPECT_EQ(roomy_io.physical_writes, 0);
  EXPECT_EQ(static_cast<int64_t>(roomy->buffer().resident_frames()),
            roomy->NodeCount());
  const IoStats small_io = small->file().stats();
  EXPECT_GT(small_io.physical_reads, 0);
  EXPECT_GT(small_io.physical_writes, 0);

  CheckStructure(backend, *small);
  ExpectSameTree(*roomy, *small);
}

INSTANTIATE_TEST_SUITE_P(Backends, InsertArenaTest,
                         ::testing::Values(Backend::kQuadratic,
                                           Backend::kRStar, Backend::kTBTree,
                                           Backend::kSTRTree),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(InsertArenaBulkLoadTest, SmallArenaPacksTheSameTree) {
  const TrajectoryStore store = Store(150, 100, 9);
  RTree3D roomy;
  roomy.BulkLoad(store);
  TrajectoryIndex::Options tight;
  tight.build_buffer_pages = 16;
  RTree3D small(tight);
  small.BulkLoad(store);
  ASSERT_GT(small.NodeCount(), 100);
  // Packed nodes are complete when staged, so none is read back.
  EXPECT_EQ(small.file().stats().physical_reads, 0);
  testing_util::CheckRTreeStructure(small, /*expect_min_fill=*/false);
  ExpectSameTree(roomy, small);
}

}  // namespace
}  // namespace mst
