// Randomized round-trip tests of the node codec: v2 (columnar) leaf pages,
// v1 (raw) internal pages, the version-byte dispatch, the fixed v2 column
// offsets, and the page check that rejects every other layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/index/node.h"
#include "src/index/pagefile.h"
#include "src/util/random.h"

namespace mst {
namespace {

LeafEntry RandomLeafEntry(Rng* rng) {
  LeafEntry e;
  // Ids spanning the full positive int64 range, coordinates of both signs
  // and wildly different magnitudes — the codec must be value-agnostic.
  e.traj_id = rng->UniformInt(0, int64_t{1} << 62);
  e.t0 = rng->Uniform(-1e6, 1e6);
  e.t1 = e.t0 + rng->Uniform(1e-9, 1e4);
  e.x0 = rng->Uniform(-1e8, 1e8);
  e.y0 = rng->Uniform(-1e8, 1e8);
  e.x1 = rng->Uniform(-1e8, 1e8);
  e.y1 = rng->Uniform(-1e8, 1e8);
  return e;
}

IndexNode RandomLeafNode(Rng* rng, int count, bool time_sorted) {
  IndexNode node;
  node.self = static_cast<PageId>(rng->UniformInt(0, 1 << 20));
  node.level = 0;
  node.parent = static_cast<PageId>(rng->UniformInt(-1, 1 << 20));
  node.prev_leaf = static_cast<PageId>(rng->UniformInt(-1, 1 << 20));
  node.next_leaf = static_cast<PageId>(rng->UniformInt(-1, 1 << 20));
  std::vector<LeafEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) entries.push_back(RandomLeafEntry(rng));
  if (time_sorted) {
    std::sort(entries.begin(), entries.end(),
              [](const LeafEntry& a, const LeafEntry& b) {
                if (a.t0 != b.t0) return a.t0 < b.t0;
                return a.traj_id < b.traj_id;
              });
  }
  for (const LeafEntry& e : entries) node.leaves.push_back(e);
  return node;
}

bool EntriesTimeSorted(const IndexNode& node) {
  const std::vector<LeafEntry> v = node.leaves.ToVector();
  return std::is_sorted(v.begin(), v.end(),
                        [](const LeafEntry& a, const LeafEntry& b) {
                          if (a.t0 != b.t0) return a.t0 < b.t0;
                          return a.traj_id < b.traj_id;
                        });
}

void ExpectNodesEqual(const IndexNode& got, const IndexNode& want) {
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.prev_leaf, want.prev_leaf);
  EXPECT_EQ(got.next_leaf, want.next_leaf);
  ASSERT_EQ(got.Count(), want.Count());
  for (size_t i = 0; i < want.leaves.size(); ++i) {
    EXPECT_EQ(got.leaves[i], want.leaves[i]) << "entry " << i;
  }
  // Derived metadata must round-trip too (the v2 header stores it).
  EXPECT_EQ(got.leaves.time_sorted(), EntriesTimeSorted(want));
  const Mbb3 gb = got.Bounds();
  const Mbb3 wb = want.Bounds();
  EXPECT_EQ(gb.xlo, wb.xlo);
  EXPECT_EQ(gb.ylo, wb.ylo);
  EXPECT_EQ(gb.tlo, wb.tlo);
  EXPECT_EQ(gb.xhi, wb.xhi);
  EXPECT_EQ(gb.yhi, wb.yhi);
  EXPECT_EQ(gb.thi, wb.thi);
}

TEST(NodeCodecRandomTest, LeafRoundTrip) {
  Rng rng(20260805);
  for (int trial = 0; trial < 100; ++trial) {
    const int count =
        static_cast<int>(rng.UniformInt(0, IndexNode::kCapacity));
    const bool sorted = rng.Bernoulli(0.5);
    const IndexNode node = RandomLeafNode(&rng, count, sorted);
    Page page;
    node.EncodeTo(&page);
    const IndexNode decoded = IndexNode::Decode(page, node.self);
    EXPECT_EQ(decoded.self, node.self);
    ExpectNodesEqual(decoded, node);
  }
}

TEST(NodeCodecRandomTest, InternalRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    IndexNode node;
    node.self = 3;
    node.level = static_cast<int32_t>(rng.UniformInt(1, 5));
    node.parent = static_cast<PageId>(rng.UniformInt(-1, 100));
    const int count = static_cast<int>(rng.UniformInt(1, IndexNode::kCapacity));
    for (int i = 0; i < count; ++i) {
      InternalEntry e;
      e.child = static_cast<PageId>(rng.UniformInt(0, 1 << 20));
      e.mbb = RandomLeafEntry(&rng).Bounds();
      node.internals.push_back(e);
    }
    Page page;
    node.EncodeTo(&page);
    const IndexNode decoded = IndexNode::Decode(page, node.self);
    EXPECT_EQ(decoded.level, node.level);
    EXPECT_EQ(decoded.parent, node.parent);
    ASSERT_EQ(decoded.Count(), node.Count());
    for (int i = 0; i < count; ++i) {
      const size_t s = static_cast<size_t>(i);
      EXPECT_EQ(decoded.internals[s].child, node.internals[s].child);
      EXPECT_EQ(decoded.internals[s].mbb.xlo, node.internals[s].mbb.xlo);
      EXPECT_EQ(decoded.internals[s].mbb.thi, node.internals[s].mbb.thi);
    }
  }
}

TEST(NodeCodecRandomTest, VersionByteDiscriminates) {
  Rng rng(1);
  const IndexNode node = RandomLeafNode(&rng, 10, /*time_sorted=*/true);
  Page leaf;
  node.EncodeTo(&leaf);
  // Byte 1 is the discriminator: the format version in a leaf page, the
  // second byte of the little-endian level (always 0) in an internal page.
  EXPECT_EQ(leaf.bytes[0], 0);
  EXPECT_EQ(leaf.bytes[1], kLeafPageVersion);
  IndexNode internal;
  internal.level = 1;
  internal.internals.push_back({node.Bounds(), 7, 0});
  Page pi;
  internal.EncodeTo(&pi);
  EXPECT_EQ(pi.bytes[0], 1);
  EXPECT_EQ(pi.bytes[1], 0);
  EXPECT_EQ(IndexNode::Decode(pi, 0).level, 1);
}

TEST(NodeCodecRandomTest, V2ColumnsAtFixedOffsets) {
  // Locks the on-disk v2 layout: capacity-strided columns starting right
  // after the 64-byte header, in t0 x0 y0 t1 x1 y1 id order.
  Rng rng(9);
  const IndexNode node = RandomLeafNode(&rng, 17, /*time_sorted=*/false);
  Page page;
  node.EncodeTo(&page);
  const size_t stride = sizeof(double) * static_cast<size_t>(kNodeCapacity);
  for (size_t i = 0; i < node.leaves.size(); ++i) {
    const LeafEntry e = node.leaves[i];
    double d = 0.0;
    std::memcpy(&d, &page.bytes[kLeafHeaderV2Size + i * 8], 8);
    EXPECT_EQ(d, e.t0);
    std::memcpy(&d, &page.bytes[kLeafHeaderV2Size + stride + i * 8], 8);
    EXPECT_EQ(d, e.x0);
    std::memcpy(&d, &page.bytes[kLeafHeaderV2Size + 5 * stride + i * 8], 8);
    EXPECT_EQ(d, e.y1);
    TrajectoryId id = 0;
    std::memcpy(&id, &page.bytes[kLeafHeaderV2Size + 6 * stride + i * 8], 8);
    EXPECT_EQ(id, e.traj_id);
  }
  EXPECT_EQ(page.bytes[3], 17);  // count byte
}

TEST(NodeCodecRandomTest, EncodeDeterministicAndIdempotent) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int count =
        static_cast<int>(rng.UniformInt(0, IndexNode::kCapacity));
    const IndexNode node = RandomLeafNode(&rng, count, rng.Bernoulli(0.5));
    Page a;
    Page b;
    node.EncodeTo(&a);
    node.EncodeTo(&b);
    EXPECT_EQ(a.bytes, b.bytes) << "same node must encode identically";
    // decode(encode(n)) re-encodes to the same bytes (zero-tail invariant).
    const IndexNode decoded = IndexNode::Decode(a, node.self);
    Page c;
    decoded.EncodeTo(&c);
    EXPECT_EQ(a.bytes, c.bytes);
  }
}

TEST(NodeCodecRandomTest, ClearedAndRefilledLeafEncodesLikeFresh) {
  // clear() must restore the zero-tail invariant so reused nodes stay
  // byte-deterministic (buffer frames are recycled the same way).
  Rng rng(7);
  IndexNode reused = RandomLeafNode(&rng, IndexNode::kCapacity, false);
  Rng rng2(123);
  IndexNode fresh = RandomLeafNode(&rng2, 5, true);
  reused.leaves.clear();
  for (size_t i = 0; i < fresh.leaves.size(); ++i) {
    reused.leaves.push_back(fresh.leaves[i]);
  }
  reused.level = fresh.level;
  reused.parent = fresh.parent;
  reused.prev_leaf = fresh.prev_leaf;
  reused.next_leaf = fresh.next_leaf;
  Page a;
  Page b;
  reused.EncodeTo(&a);
  fresh.EncodeTo(&b);
  EXPECT_EQ(a.bytes, b.bytes);
}

// Internal pages zero their unused tail like leaf pages, so a page that
// held a full node before a split carries none of those entries after it.
TEST(NodeCodecRandomTest, InternalEncodeZeroesTheTailPastCount) {
  Rng rng(31);
  const auto internal_node = [&rng](int count) {
    IndexNode node;
    node.self = 9;
    node.level = 1;
    for (int i = 0; i < count; ++i) {
      InternalEntry e;
      e.child = static_cast<PageId>(rng.UniformInt(0, 1 << 20));
      e.mbb = RandomLeafEntry(&rng).Bounds();
      node.internals.push_back(e);
    }
    return node;
  };
  Page page;
  internal_node(IndexNode::kCapacity).EncodeTo(&page);
  const IndexNode small = internal_node(3);
  small.EncodeTo(&page);
  const size_t used = IndexNode::kHeaderSize + 3 * IndexNode::kEntrySize;
  for (size_t i = used; i < kPageSize; ++i) {
    ASSERT_EQ(page.bytes[i], 0) << "byte " << i;
  }
  // The page is the fresh encoding of the 3-entry node, byte for byte.
  Page fresh;
  small.EncodeTo(&fresh);
  EXPECT_EQ(page.bytes, fresh.bytes);
}

// The page check admits exactly the two layouts the index writes and names
// the fault in every other page.
TEST(NodeCodecRandomTest, CheckNodePageAcceptsBothLayoutsAndNamesFaults) {
  Rng rng(5);
  int32_t level = -1;
  Page leaf;
  RandomLeafNode(&rng, IndexNode::kCapacity, true).EncodeTo(&leaf);
  EXPECT_EQ(CheckNodePage(leaf, &level), "");
  EXPECT_EQ(level, 0);

  IndexNode internal;
  internal.level = 2;
  internal.internals.push_back({Mbb3(), 7, 0});
  Page pi;
  internal.EncodeTo(&pi);
  EXPECT_EQ(CheckNodePage(pi, &level), "");
  EXPECT_EQ(level, 2);

  Page bad = leaf;
  bad.WriteAt<uint8_t>(3, 200);  // leaf entry count
  EXPECT_NE(CheckNodePage(bad, &level).find("leaf entry count 200"),
            std::string::npos);

  bad = pi;
  bad.WriteAt<int32_t>(4, 73);  // internal entry count
  EXPECT_NE(CheckNodePage(bad, &level).find("internal entry count 73"),
            std::string::npos);

  // A v1 row-major leaf: int32 level 0, int32 count, row-major entries.
  Page v1_leaf;
  v1_leaf.WriteAt<int32_t>(0, 0);
  v1_leaf.WriteAt<int32_t>(4, 5);
  EXPECT_NE(CheckNodePage(v1_leaf, &level).find("v1 row-major leaf"),
            std::string::npos);

  for (const uint8_t version : {3, 4}) {
    bad = leaf;
    bad.WriteAt<uint8_t>(1, version);
    const std::string fault = CheckNodePage(bad, &level);
    EXPECT_NE(fault.find("v3 compressed"), std::string::npos) << fault;
    EXPECT_NE(fault.find("rebuild"), std::string::npos) << fault;
  }
  bad = leaf;
  bad.WriteAt<uint8_t>(1, 9);
  EXPECT_NE(CheckNodePage(bad, &level).find("format version 9"),
            std::string::npos);
}

TEST(NodeCodecDeathTest, DecodeAbortsOnRetiredLeafLayout) {
  Page v1_leaf;
  v1_leaf.WriteAt<int32_t>(0, 0);
  v1_leaf.WriteAt<int32_t>(4, 5);
  EXPECT_DEATH(IndexNode::Decode(v1_leaf, 0), "not an internal node page");
}

}  // namespace
}  // namespace mst
