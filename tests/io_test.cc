#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/io/csv.h"
#include "src/io/index_io.h"

namespace mst {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

TrajectoryStore SampleStore() {
  GstdOptions opt;
  opt.num_objects = 8;
  opt.samples_per_object = 40;
  opt.timestamp_jitter = 0.5;
  opt.seed = 81;
  return GenerateGstd(opt);
}

TEST(CsvTest, SaveLoadRoundTrip) {
  const TrajectoryStore store = SampleStore();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveTrajectoriesCsv(store, path));

  std::string error;
  const auto loaded = LoadTrajectoriesCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), store.size());
  for (const Trajectory& t : store.trajectories()) {
    const Trajectory* l = loaded->Find(t.id());
    ASSERT_NE(l, nullptr);
    ASSERT_EQ(l->size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      // %.17g printing round-trips doubles exactly.
      EXPECT_EQ(l->sample(i).t, t.sample(i).t);
      EXPECT_EQ(l->sample(i).p, t.sample(i).p);
    }
  }
}

TEST(CsvTest, LoadIgnoresCommentsAndBlanks) {
  const std::string path = TempPath("comments.csv");
  WriteFile(path,
            "# header\n"
            "\n"
            "1,0.0,1.0,2.0\n"
            "1,1.0,2.0,3.0\n"
            "# trailing comment\n"
            "2,0.5,0.0,0.0\n");
  std::string error;
  const auto loaded = LoadTrajectoriesCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->Get(1).size(), 2u);
  EXPECT_EQ(loaded->Get(2).size(), 1u);
}

TEST(CsvTest, LoadRejectsMalformedLine) {
  const std::string path = TempPath("bad.csv");
  WriteFile(path, "1,0.0,oops,2.0\n");
  std::string error;
  EXPECT_FALSE(LoadTrajectoriesCsv(path, &error).has_value());
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

TEST(CsvTest, LoadRejectsNonIncreasingTime) {
  const std::string path = TempPath("order.csv");
  WriteFile(path, "1,1.0,0,0\n1,1.0,1,1\n");
  std::string error;
  EXPECT_FALSE(LoadTrajectoriesCsv(path, &error).has_value());
  EXPECT_NE(error.find("timestamp"), std::string::npos);
}

TEST(CsvTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(LoadTrajectoriesCsv("/nonexistent/x.csv", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CsvTest, TrucksPortalFormatParses) {
  const std::string path = TempPath("trucks.csv");
  WriteFile(path,
            "0962;10962;10/09/2002;09:15:59;23.845089;38.018470;486253;"
            "4207588\n"
            "0962;10962;10/09/2002;09:16:29;23.845179;38.018069;486261;"
            "4207543\n"
            "0963;10963;10/09/2002;09:15:59;23.8;38.0;480000;4200000\n"
            "0963;10963;11/09/2002;09:15:59;23.8;38.0;480001;4200001\n");
  std::string error;
  const auto loaded = LoadTrucksPortalCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 2u);
  const Trajectory& a = loaded->Get(10962);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.sample(0).t, 0.0);   // earliest instant in the file
  EXPECT_DOUBLE_EQ(a.sample(1).t, 30.0);  // 30 s later
  EXPECT_DOUBLE_EQ(a.sample(0).p.x, 486253.0);
  const Trajectory& b = loaded->Get(10963);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.sample(1).t - b.sample(0).t, 86400.0);  // next day
}

TEST(CsvTest, TrucksPortalDropsDuplicateTimestamps) {
  const std::string path = TempPath("trucks_dup.csv");
  WriteFile(path,
            "1;11;10/09/2002;09:00:00;0;0;100;100\n"
            "1;11;10/09/2002;09:00:00;0;0;999;999\n"
            "1;11;10/09/2002;09:00:05;0;0;105;105\n");
  std::string error;
  const auto loaded = LoadTrucksPortalCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const Trajectory& t = loaded->Get(11);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.sample(0).p.x, 100.0);  // first kept
}

TEST(IndexIoTest, SaveLoadRoundTripServesIdenticalQueries) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("index.mst");
  ASSERT_TRUE(SaveIndex(tree, path));

  std::string error;
  const std::unique_ptr<TrajectoryIndex> loaded = LoadIndex(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->root(), tree.root());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->NodeCount(), tree.NodeCount());
  EXPECT_EQ(loaded->EntryCount(), tree.EntryCount());
  EXPECT_DOUBLE_EQ(loaded->max_speed(), tree.max_speed());
  EXPECT_NE(loaded->name().find("loaded"), std::string::npos);
  loaded->CheckInvariants();

  // The loaded index must answer MST queries exactly like the original.
  const BFMstSearch searcher(loaded.get(), &store);
  const Trajectory query(999, store.Get(3).Slice({0.2, 0.6})->samples());
  const auto got = searcher.Search(query, query.Lifespan(), MstOptions());
  const auto want = LinearScanKMst(store, query, query.Lifespan(), 1,
                                   IntegrationPolicy::kExact);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, want[0].id);
  EXPECT_NEAR(got[0].dissim, want[0].dissim, 1e-9);
}

TEST(IndexIoTest, LoadedIndexRejectsInserts) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("index_ro.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  std::string error;
  const auto loaded = LoadIndex(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_DEATH(loaded->Insert(LeafEntry::Of(1, {0.0, {0, 0}}, {1.0, {1, 1}})),
               "read-only");
}

TEST(IndexIoTest, RejectsGarbageFile) {
  const std::string path = TempPath("garbage.mst");
  WriteFile(path, "this is not an index");
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("not an index"), std::string::npos);
}

/// Overwrites `size` bytes of `path` at `offset` (for header corruption).
void PatchFile(const std::string& path, long offset, const void* bytes,
               size_t size) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, size, f), size);
  std::fclose(f);
}

// Byte offsets into the saved file: 8 bytes of magic, then the header
// (page_count i64, root i32, height i32, entry_count i64, max_speed f64,
// name[32]).
constexpr long kEntryCountOffset = 8 + 16;
constexpr long kMaxSpeedOffset = 8 + 24;

TEST(IndexIoTest, OpenRejectsZeroBufferPagesBeforeAnyIo) {
  IndexOpenOptions options;
  options.index.build_buffer_pages = 0;
  std::string error;
  // The path does not even exist — invalid options fail first, explicitly.
  EXPECT_EQ(LoadIndex("/nonexistent/opts.mst", options, &error), nullptr);
  EXPECT_NE(error.find("build_buffer_pages"), std::string::npos);
}

TEST(IndexIoTest, RejectsTrailingBytesAfterPagePayload) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("trailing.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc('x', f);
  std::fclose(f);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("trailing bytes"), std::string::npos);
}

TEST(IndexIoTest, RejectsCorruptEntryCountAndMaxSpeed) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("corrupt_stats.mst");

  ASSERT_TRUE(SaveIndex(tree, path));
  const int64_t negative_count = -1;
  PatchFile(path, kEntryCountOffset, &negative_count, sizeof(negative_count));
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos);

  ASSERT_TRUE(SaveIndex(tree, path));
  const double nan_speed = std::nan("");
  PatchFile(path, kMaxSpeedOffset, &nan_speed, sizeof(nan_speed));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos);

  ASSERT_TRUE(SaveIndex(tree, path));
  const double negative_speed = -2.5;
  PatchFile(path, kMaxSpeedOffset, &negative_speed, sizeof(negative_speed));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos);
}

TEST(IndexIoTest, OpenOptionsConfigureTheLoadedIndex) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("opts_honored.mst");
  ASSERT_TRUE(SaveIndex(tree, path));

  IndexOpenOptions options;
  options.index.node_cache_nodes = 0;  // disable the decoded-node cache
  std::string error;
  const auto loaded = LoadIndex(path, options, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->EntryCount(), tree.EntryCount());
  const BFMstSearch searcher(loaded.get(), &store);
  const Trajectory query(999, store.Get(3).Slice({0.2, 0.6})->samples());
  MstStats stats;
  const auto got =
      searcher.Search(query, query.Lifespan(), MstOptions(), &stats);
  ASSERT_FALSE(got.empty());
  // With the cache disabled, no hit/miss traffic is recorded at all.
  EXPECT_EQ(stats.node_cache_hits + stats.node_cache_misses, 0);
}

// Byte offset of page `id` inside a saved index file: pages follow the
// 8-byte magic and the 64-byte header.
long PageOffset(PageId id) {
  return 8 + 64 + static_cast<long>(id) * static_cast<long>(kPageSize);
}

// Leftmost leaf of `index`, found by descending first children.
PageId FirstLeaf(const TrajectoryIndex& index) {
  PageId id = index.root();
  for (NodeRef node = index.ReadNode(id); !node->IsLeaf();
       node = index.ReadNode(id)) {
    id = node->internals[0].child;
  }
  return id;
}

// A saved TB-tree with at least one internal level, patched per case below.
class CorruptPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_.BuildFrom(SampleStore());
    ASSERT_GT(tree_.height(), 1) << "need an internal root";
    path_ = TempPath("corrupt_page.mst");
    ASSERT_TRUE(SaveIndex(tree_, path_));
    std::string error;
    ASSERT_NE(LoadIndex(path_, &error), nullptr) << error;
  }

  // Loads the patched file; expects a rejection naming `page` and `fault`.
  void ExpectRejected(PageId page, const std::string& fault) {
    std::string error;
    EXPECT_EQ(LoadIndex(path_, &error), nullptr);
    EXPECT_NE(error.find("page " + std::to_string(page)), std::string::npos)
        << error;
    EXPECT_NE(error.find(fault), std::string::npos) << error;
  }

  TBTree tree_;
  std::string path_;
};

TEST_F(CorruptPageTest, RejectsLeafCountAboveCapacity) {
  const PageId leaf = FirstLeaf(tree_);
  const uint8_t count = 200;
  PatchFile(path_, PageOffset(leaf) + 3, &count, 1);
  ExpectRejected(leaf, "leaf entry count 200");
}

TEST_F(CorruptPageTest, RejectsChildIdOutOfRange) {
  const PageId root = tree_.root();
  // The first routing entry's child id sits after the 24-byte header and
  // the entry's 48-byte MBB.
  const PageId child = static_cast<PageId>(tree_.NodeCount()) + 5;
  PatchFile(path_, PageOffset(root) + 24 + 48, &child, sizeof(child));
  ExpectRejected(root, "child page id " + std::to_string(child));
}

TEST_F(CorruptPageTest, RejectsChildOnTheWrongLevel) {
  // A routing entry pointing back at its own page would make the traversal
  // loop; the level check refuses it.
  const PageId root = tree_.root();
  PatchFile(path_, PageOffset(root) + 24 + 48, &root, sizeof(root));
  ExpectRejected(root, "has level");
}

TEST_F(CorruptPageTest, RejectsV1LayoutLeaf) {
  // A v1 row-major leaf header: int32 level 0, int32 entry count.
  const PageId leaf = FirstLeaf(tree_);
  const int32_t header[2] = {0, 5};
  PatchFile(path_, PageOffset(leaf), header, sizeof(header));
  ExpectRejected(leaf, "v1 row-major leaf page");
}

// v3 compressed pages are a retired format: a file holding one is refused
// with the page named and a pointer to rebuilding, never decoded.
TEST(IndexIoTest, RejectsCorruptV3LeafPages) {
  TBTree tree;
  tree.BuildFrom(SampleStore());
  const std::string path = TempPath("v3_leaf.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const PageId leaf = FirstLeaf(tree);
  const uint8_t version = 3;
  PatchFile(path, PageOffset(leaf) + 1, &version, 1);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("page " + std::to_string(leaf) +
                       ": v3 compressed leaf page"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("rebuild the index from the CSV"), std::string::npos)
      << error;
}

TEST(IndexIoTest, RejectsCorruptV3InternalPages) {
  TBTree tree;
  tree.BuildFrom(SampleStore());
  ASSERT_GT(tree.height(), 1);
  const std::string path = TempPath("v3_internal.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const uint8_t version = 4;
  PatchFile(path, PageOffset(tree.root()) + 1, &version, 1);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("page " + std::to_string(tree.root()) +
                       ": v3 compressed internal page"),
            std::string::npos)
      << error;
}

// Every backend writes only pages the loader accepts, and the loaded copy
// answers with the same results and node accesses.
TEST(IndexIoTest, EveryBackendRoundTripsThroughTheLoader) {
  const TrajectoryStore store = SampleStore();
  TrajectoryIndex::Options rstar;
  rstar.rtree_variant = RTreeVariant::kRStar;
  std::vector<std::unique_ptr<TrajectoryIndex>> indexes;
  indexes.push_back(std::make_unique<RTree3D>());
  indexes.push_back(std::make_unique<RTree3D>(rstar));
  indexes.push_back(std::make_unique<TBTree>());
  indexes.push_back(std::make_unique<STRTree>());
  for (auto& index : indexes) index->BuildFrom(store);
  auto bulk = std::make_unique<RTree3D>();
  bulk->BulkLoad(store);
  indexes.push_back(std::move(bulk));

  const Trajectory query(999, store.Get(3).Slice({0.2, 0.6})->samples());
  MstOptions options;
  options.k = 3;
  for (const auto& index : indexes) {
    const std::string path = TempPath("backend.mst");
    ASSERT_TRUE(SaveIndex(*index, path));
    std::string error;
    const auto loaded = LoadIndex(path, &error);
    ASSERT_NE(loaded, nullptr) << index->name() << ": " << error;
    loaded->CheckInvariants();
    MstStats want_stats;
    MstStats got_stats;
    const auto want = BFMstSearch(index.get(), &store)
                          .Search(query, query.Lifespan(), options,
                                  &want_stats);
    const auto got = BFMstSearch(loaded.get(), &store)
                         .Search(query, query.Lifespan(), options, &got_stats);
    ASSERT_EQ(got.size(), want.size()) << index->name();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << index->name();
      EXPECT_EQ(got[i].dissim, want[i].dissim) << index->name();
    }
    EXPECT_EQ(got_stats.nodes_accessed, want_stats.nodes_accessed)
        << index->name();
  }
}

TEST(IndexIoTest, RejectsTruncatedFile) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("trunc.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  // Truncate the file in the middle of the page payload.
  FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(ftruncate(fileno(f), 8 + 64 + 3 * kPageSize + 100), 0);
  std::fclose(f);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace mst
