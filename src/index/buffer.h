// Write-back LRU buffer manager in front of a PageFile. The experiments run
// with a buffer sized at 10 % of the index, capped at 1000 pages (§5).
//
// Concurrency model: the frame table is split into shards, each with its own
// mutex and LRU list, so concurrent queries pin pages mostly without
// contending. Callers access pages exclusively through reference-counted
// PageGuard pins — a frame is never evicted, written back, or dropped while
// a guard holds it. The logical-read and miss counters are atomics whose
// totals aggregate exactly under any interleaving, which keeps the paper's
// I/O-counter experiments meaningful when queries run in parallel.

#ifndef MST_INDEX_BUFFER_H_
#define MST_INDEX_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/pagefile.h"

namespace mst {

class BufferManager;

namespace internal {
struct BufferFrame;
struct BufferShard;
}  // namespace internal

/// RAII pin on one buffered page. While a guard is alive its frame stays
/// resident and its Page pointer stays valid; destruction (or Release())
/// unpins the frame. Guards from Pin() expose read-only bytes; guards from
/// PinMutable() additionally allow mutable_page() and mark the frame dirty.
/// Move-constructible only. A guard must not outlive its BufferManager.
class PageGuard {
 public:
  PageGuard(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return frame_ != nullptr; }

  /// Page id this guard pins (kInvalidPageId once moved from or released).
  PageId id() const { return id_; }

  const Page& operator*() const {
    MST_DCHECK(page_ != nullptr);
    return *page_;
  }
  const Page* operator->() const {
    MST_DCHECK(page_ != nullptr);
    return page_;
  }
  const Page* page() const { return page_; }

  /// Mutable byte access; only legal on guards obtained via PinMutable.
  Page* mutable_page() {
    MST_CHECK_MSG(writable_, "mutable access through a read-only PageGuard");
    return page_;
  }

  /// Drops the pin early (idempotent).
  void Release();

 private:
  friend class BufferManager;
  PageGuard(BufferManager* owner, internal::BufferShard* shard,
            internal::BufferFrame* frame, Page* page, PageId id,
            bool writable)
      : owner_(owner),
        shard_(shard),
        frame_(frame),
        page_(page),
        id_(id),
        writable_(writable) {}

  BufferManager* owner_ = nullptr;
  internal::BufferShard* shard_ = nullptr;
  internal::BufferFrame* frame_ = nullptr;
  Page* page_ = nullptr;
  PageId id_ = kInvalidPageId;
  bool writable_ = false;
};

/// Sharded LRU page cache with reference-counted pins.
///
/// Pages map to shards by `id % shard_count`; each shard owns
/// `capacity / shard_count` frames (±1) and evicts independently, LRU-first,
/// skipping pinned frames. When every frame of a shard is pinned the shard
/// grows past its budget instead of failing — pins are short-lived, so the
/// overshoot is transient.
class BufferManager {
 public:
  /// `capacity_pages` must be >= 1. The buffer does not own `file`.
  /// `num_shards` 0 picks min(kDefaultShards, capacity_pages); tests that
  /// need exact global-LRU behaviour pass 1.
  BufferManager(PageFile* file, size_t capacity_pages, size_t num_shards = 0);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  ~BufferManager();

  /// Default shard count for index buffers.
  static constexpr size_t kDefaultShards = 8;

  /// Pins page `id` read-only, faulting it in on a miss. Counts one logical
  /// read; a miss additionally counts one physical read.
  PageGuard Pin(PageId id);

  /// Pins page `id` for writing and marks the frame dirty; the page reaches
  /// the PageFile when evicted or on Flush().
  PageGuard PinMutable(PageId id);

  /// Allocates a fresh page in the underlying file and returns its id with a
  /// zeroed, dirty, unpinned frame already resident.
  PageId AllocatePage();

  /// Writes back every dirty frame without a write pin (does not drop any
  /// frame from the cache).
  void Flush();

  /// Drops all unpinned frames after flushing. Used between experiment
  /// phases so each query sequence starts against a cold or warm cache
  /// deliberately. Pinned frames stay resident.
  void Clear();

  /// Resizes the cache capacity, evicting LRU frames if shrinking. The shard
  /// count is fixed at construction, so the effective floor is one frame per
  /// shard.
  void SetCapacity(size_t capacity_pages);

  size_t capacity() const { return capacity_; }

  size_t shard_count() const { return shards_.size(); }

  int64_t logical_reads() const {
    return logical_reads_.load(std::memory_order_relaxed);
  }

  /// Buffer misses since construction or ResetCounters().
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  void ResetCounters() {
    logical_reads_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  /// Frames currently pinned by outstanding guards (diagnostics/tests).
  int64_t pinned_frames() const;

  /// Frames currently resident across all shards.
  size_t resident_frames() const;

 private:
  friend class PageGuard;

  internal::BufferShard& ShardFor(PageId id) const;

  // Pin implementation shared by Pin/PinMutable.
  PageGuard PinImpl(PageId id, bool writable, bool load_from_disk);

  // Called by guards; locks the frame's shard and decrements pin counts.
  void Unpin(internal::BufferShard* shard, internal::BufferFrame* frame,
             bool writable);

  // Evicts unpinned LRU frames until the shard is back under its budget.
  // Caller holds the shard mutex.
  void EvictLocked(internal::BufferShard& shard);

  // Distributes capacity_ over the shards (±1 frame, min 1).
  void AssignShardBudgets();

  PageFile* file_;
  size_t capacity_;
  std::vector<std::unique_ptr<internal::BufferShard>> shards_;
  std::atomic<int64_t> logical_reads_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace mst

#endif  // MST_INDEX_BUFFER_H_
