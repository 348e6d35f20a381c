// Simulated disk: a flat file of fixed-size 4 KB pages with read/write
// accounting. The experimental setup of the paper (§5) measures index size
// and node accesses in terms of 4 KB pages; this module is the substrate for
// that accounting.
//
// Thread safety: Allocate() takes an exclusive lock (the page array grows);
// Read()/Write() take a shared lock, so concurrent readers never block each
// other. The I/O counters are atomics, so totals aggregate exactly no matter
// how many threads drive the file.

#ifndef MST_INDEX_PAGEFILE_H_
#define MST_INDEX_PAGEFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/util/check.h"

namespace mst {

/// Disk page size used by all indexes (matches the paper's 4 KB setup).
inline constexpr size_t kPageSize = 4096;

/// Identifier of a page within a PageFile.
using PageId = int32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = -1;

/// One fixed-size page of raw bytes, with bounds-checked scalar access
/// helpers used by the node serializers. Pages are 8-byte aligned, so the
/// v2 leaf layout's column region (a LeafBlock image at an 8-byte offset)
/// keeps the alignment of the doubles it holds.
struct alignas(8) Page {
  std::array<uint8_t, kPageSize> bytes{};

  /// Writes a trivially copyable value at byte offset `off`.
  template <typename T>
  void WriteAt(size_t off, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    MST_DCHECK(off + sizeof(T) <= kPageSize);
    std::memcpy(bytes.data() + off, &value, sizeof(T));
  }

  /// Reads a trivially copyable value from byte offset `off`.
  template <typename T>
  T ReadAt(size_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    MST_DCHECK(off + sizeof(T) <= kPageSize);
    T value;
    std::memcpy(&value, bytes.data() + off, sizeof(T));
    return value;
  }
};

/// Snapshot of the simulated disk-traffic counters.
struct IoStats {
  int64_t physical_reads = 0;
  int64_t physical_writes = 0;

  void Reset() { *this = IoStats(); }
};

/// An append-allocated, in-memory array of pages standing in for the index
/// file on disk. Reads/writes are counted as physical I/O; the BufferManager
/// sits in front of it to absorb repeated accesses.
class PageFile {
 public:
  PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a fresh zeroed page and returns its id.
  PageId Allocate() {
    std::unique_lock lock(mu_);
    pages_.emplace_back();
    return static_cast<PageId>(pages_.size() - 1);
  }

  /// Copies page `id` into `*out`, counting one physical read.
  void Read(PageId id, Page* out) {
    std::shared_lock lock(mu_);
    MST_CHECK(IsValidLocked(id));
    physical_reads_.fetch_add(1, std::memory_order_relaxed);
    *out = pages_[static_cast<size_t>(id)];
  }

  /// Overwrites page `id`, counting one physical write. Concurrent writes to
  /// *distinct* pages are safe; the buffer manager guarantees it never
  /// writes back the same page from two threads at once.
  void Write(PageId id, const Page& page) {
    std::shared_lock lock(mu_);
    MST_CHECK(IsValidLocked(id));
    physical_writes_.fetch_add(1, std::memory_order_relaxed);
    pages_[static_cast<size_t>(id)] = page;
  }

  /// True iff `id` names an allocated page.
  bool IsValid(PageId id) const {
    std::shared_lock lock(mu_);
    return IsValidLocked(id);
  }

  /// Number of allocated pages.
  int64_t PageCount() const {
    std::shared_lock lock(mu_);
    return static_cast<int64_t>(pages_.size());
  }

  /// Total size of the simulated file in bytes.
  int64_t SizeBytes() const { return PageCount() * kPageSize; }

  /// Snapshot of the physical I/O counters (exact totals under concurrency).
  IoStats stats() const {
    IoStats out;
    out.physical_reads = physical_reads_.load(std::memory_order_relaxed);
    out.physical_writes = physical_writes_.load(std::memory_order_relaxed);
    return out;
  }

  void ResetStats() {
    physical_reads_.store(0, std::memory_order_relaxed);
    physical_writes_.store(0, std::memory_order_relaxed);
  }

 private:
  bool IsValidLocked(PageId id) const {
    return id >= 0 && static_cast<size_t>(id) < pages_.size();
  }

  mutable std::shared_mutex mu_;
  std::vector<Page> pages_;
  std::atomic<int64_t> physical_reads_{0};
  std::atomic<int64_t> physical_writes_{0};
};

}  // namespace mst

#endif  // MST_INDEX_PAGEFILE_H_
