#include "src/index/node.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace mst {

namespace {

// v2 leaf-page header field offsets (see the layout comment in node.h).
// Byte 0 is the level (0 for leaves), byte 1 the format version — the byte
// that is 0 in every internal page, where it holds the second byte of the
// little-endian int32 level.
constexpr size_t kV2OffLevel = 0;
constexpr size_t kV2OffVersion = 1;
constexpr size_t kV2OffFlags = 2;
constexpr size_t kV2OffCount = 3;
constexpr size_t kV2OffParent = 4;
constexpr size_t kV2OffPrevLeaf = 8;
constexpr size_t kV2OffNextLeaf = 12;
constexpr size_t kV2OffBounds = 16;
constexpr size_t kV2OffColumns = kLeafHeaderV2Size;

constexpr uint8_t kV2FlagTimeSorted = 1u;

// Internal-page (v1) header field offsets.
constexpr size_t kV1OffLevel = 0;
constexpr size_t kV1OffCount = 4;
constexpr size_t kV1OffParent = 8;
constexpr size_t kV1OffPrevLeaf = 12;
constexpr size_t kV1OffNextLeaf = 16;
constexpr size_t kV1OffPad = 20;

bool IsLeafPage(const Page& page) {
  return page.ReadAt<uint8_t>(kV2OffVersion) == kLeafPageVersion;
}

static_assert(sizeof(Mbb3) == 48, "v2 header embeds the MBB verbatim");
static_assert(kV2OffBounds + sizeof(Mbb3) == kLeafHeaderV2Size);

// Per-thread freelist of recycled column blocks. Leaf decode allocates one
// 4 KB block per read; with the node cache disabled that is an allocator
// round trip per node access, which shows up in the k-MST hot path.
// Donated blocks hold arbitrary bytes — consumers either overwrite the
// whole block (AssignFromSoa, copy) or re-zero it (EnsureBlock). The list
// is thread-local, so no synchronization; the cap bounds each thread at
// 512 KB of standby blocks.
constexpr size_t kBlockFreelistCap = 128;
thread_local std::vector<std::unique_ptr<LeafBlock>> tls_block_freelist;

std::unique_ptr<LeafBlock> AcquireBlock() {
  if (!tls_block_freelist.empty()) {
    std::unique_ptr<LeafBlock> b = std::move(tls_block_freelist.back());
    tls_block_freelist.pop_back();
    return b;
  }
  return std::make_unique_for_overwrite<LeafBlock>();
}

void RecycleBlock(std::unique_ptr<LeafBlock> b) {
  if (b != nullptr && tls_block_freelist.size() < kBlockFreelistCap) {
    tls_block_freelist.push_back(std::move(b));
  }
}

}  // namespace

LeafColumns::~LeafColumns() { RecycleBlock(std::move(block_)); }

void LeafColumns::EnsureBlock() {
  if (block_ != nullptr) return;
  block_ = AcquireBlock();
  std::memset(block_.get(), 0, sizeof(LeafBlock));
}

void LeafColumns::clear() {
  if (block_ != nullptr && count_ > 0) {
    // Re-zero only the used prefix of each column; the tail is already zero
    // (zero-tail invariant keeps v2 page encodes byte-deterministic).
    const size_t n = static_cast<size_t>(count_);
    std::fill_n(block_->t0, n, 0.0);
    std::fill_n(block_->x0, n, 0.0);
    std::fill_n(block_->y0, n, 0.0);
    std::fill_n(block_->t1, n, 0.0);
    std::fill_n(block_->x1, n, 0.0);
    std::fill_n(block_->y1, n, 0.0);
    std::fill_n(block_->traj_id, n, TrajectoryId{0});
  }
  count_ = 0;
  sorted_ = true;
  mbb_ = Mbb3();
}

std::vector<LeafEntry> LeafColumns::ToVector() const {
  std::vector<LeafEntry> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back((*this)[i]);
  return out;
}

void LeafColumns::AssignFromSoa(const uint8_t* src, int count,
                                bool time_sorted, const Mbb3& bounds) {
  // No EnsureBlock here: the full-block copy overwrites every byte anyway
  // (leaf pages carry the zero tail), so a recycled block needs no
  // re-zeroing — this is the decode hot path with the node cache disabled.
  if (block_ == nullptr) block_ = AcquireBlock();
  std::memcpy(block_.get(), src, sizeof(LeafBlock));
  count_ = count;
  sorted_ = time_sorted;
  mbb_ = bounds;
}

Mbb3 IndexNode::Bounds() const {
  if (IsLeaf()) return leaves.bounds();
  Mbb3 m;
  for (const InternalEntry& e : internals) m.Expand(e.mbb);
  return m;
}

void IndexNode::EncodeTo(Page* page) const {
  const int count = Count();
  MST_CHECK_MSG(count <= kCapacity, "node overflow at encode time");

  if (IsLeaf()) {
    page->WriteAt<uint8_t>(kV2OffLevel, 0);
    page->WriteAt<uint8_t>(kV2OffVersion, kLeafPageVersion);
    const uint8_t flags = leaves.time_sorted() ? kV2FlagTimeSorted : 0u;
    page->WriteAt<uint8_t>(kV2OffFlags, flags);
    page->WriteAt<uint8_t>(kV2OffCount, static_cast<uint8_t>(count));
    page->WriteAt<PageId>(kV2OffParent, parent);
    page->WriteAt<PageId>(kV2OffPrevLeaf, prev_leaf);
    page->WriteAt<PageId>(kV2OffNextLeaf, next_leaf);
    page->WriteAt<Mbb3>(kV2OffBounds, leaves.bounds());
    uint8_t* dst = page->bytes.data() + kV2OffColumns;
    const LeafView v = leaves.View();
    if (v.t0 != nullptr) {
      // Single full-block copy; the zero-tail invariant makes it
      // deterministic regardless of count.
      std::memcpy(dst, v.t0, sizeof(LeafBlock));
    } else {
      std::memset(dst, 0, sizeof(LeafBlock));
    }
    return;
  }

  page->WriteAt<int32_t>(kV1OffLevel, level);
  page->WriteAt<int32_t>(kV1OffCount, count);
  page->WriteAt<PageId>(kV1OffParent, parent);
  page->WriteAt<PageId>(kV1OffPrevLeaf, prev_leaf);
  page->WriteAt<PageId>(kV1OffNextLeaf, next_leaf);
  page->WriteAt<int32_t>(kV1OffPad, 0);
  const size_t used = static_cast<size_t>(count) * kEntrySize;
  if (count > 0) {
    std::memcpy(page->bytes.data() + kHeaderSize, internals.data(), used);
  }
  // Zero the rest of the page, as leaf pages are: the bytes of a page then
  // depend only on the node, never on what the page held before.
  std::memset(page->bytes.data() + kHeaderSize + used, 0,
              kPageSize - kHeaderSize - used);
}

std::string CheckNodePage(const Page& page, int32_t* level) {
  const uint8_t version = page.ReadAt<uint8_t>(kV2OffVersion);
  if (version == kLeafPageVersion) {
    if (page.ReadAt<uint8_t>(kV2OffLevel) != 0) {
      return "leaf page with a nonzero level byte";
    }
    const int count = page.ReadAt<uint8_t>(kV2OffCount);
    if (count > kNodeCapacity) {
      return "leaf entry count " + std::to_string(count) + " exceeds " +
             std::to_string(kNodeCapacity);
    }
    *level = 0;
    return "";
  }
  if (version == 3 || version == 4) {
    return std::string("v3 compressed ") +
           (version == 3 ? "leaf" : "internal") +
           " page, a retired format; rebuild the index from the CSV";
  }
  if (version != 0) {
    return "unknown page format version " + std::to_string(version);
  }
  const int32_t node_level = page.ReadAt<int32_t>(kV1OffLevel);
  if (node_level == 0) {
    return "v1 row-major leaf page, a retired format; rebuild the index from "
           "the CSV";
  }
  if (node_level < 0) {
    return "internal page with level " + std::to_string(node_level);
  }
  const int32_t count = page.ReadAt<int32_t>(kV1OffCount);
  if (count < 0 || count > kNodeCapacity) {
    return "internal entry count " + std::to_string(count) +
           " outside [0, " + std::to_string(kNodeCapacity) + "]";
  }
  *level = node_level;
  return "";
}

IndexNode IndexNode::Decode(const Page& page, PageId self) {
  IndexNode node;
  node.self = self;

  if (IsLeafPage(page)) {
    const uint8_t flags = page.ReadAt<uint8_t>(kV2OffFlags);
    const int count = page.ReadAt<uint8_t>(kV2OffCount);
    MST_CHECK_MSG(count <= kCapacity, "corrupt leaf count");
    node.parent = page.ReadAt<PageId>(kV2OffParent);
    node.prev_leaf = page.ReadAt<PageId>(kV2OffPrevLeaf);
    node.next_leaf = page.ReadAt<PageId>(kV2OffNextLeaf);
    const Mbb3 bounds = page.ReadAt<Mbb3>(kV2OffBounds);
    node.leaves.AssignFromSoa(page.bytes.data() + kV2OffColumns, count,
                              (flags & kV2FlagTimeSorted) != 0, bounds);
    return node;
  }
  MST_CHECK_MSG(page.ReadAt<uint8_t>(kV2OffVersion) == 0,
                "unknown node page format");
  node.level = page.ReadAt<int32_t>(kV1OffLevel);
  MST_CHECK_MSG(node.level >= 1, "not an internal node page");
  const int32_t count = page.ReadAt<int32_t>(kV1OffCount);
  MST_CHECK_MSG(count >= 0 && count <= kCapacity, "corrupt node count");
  node.parent = page.ReadAt<PageId>(kV1OffParent);
  node.prev_leaf = page.ReadAt<PageId>(kV1OffPrevLeaf);
  node.next_leaf = page.ReadAt<PageId>(kV1OffNextLeaf);
  node.internals.resize(static_cast<size_t>(count));
  if (count > 0) {
    std::memcpy(node.internals.data(), page.bytes.data() + kHeaderSize,
                static_cast<size_t>(count) * kEntrySize);
  }
  return node;
}

}  // namespace mst
