// ShardFrontEnd: the service layer of the sharded k-MST engine — one
// logical submission surface over N single-threaded shard stacks: clients
// talk to one front door; storage-level work happens on per-shard workers
// that never share mutable state.
//
// It is N shard executors plus a merge. A submitted query fans out one leg
// to each shard's QueryExecutor (one worker and one bounded queue each, so
// each shard stack stays single-threaded); the returned future is deferred:
// the merge of the per-shard top-k lists (ScatterGatherSearch::
// MergeShardResults) and the exact aggregation of the per-(query, shard)
// stats (AggregateShardStats) run on the thread that calls get(). Being
// deferred, its wait_for/wait_until report std::future_status::deferred;
// call get() or wait(). The future owns only its leg futures, and
// destruction drains every submitted leg (each shard executor's destructor
// does), so a future stays valid after the front end is destroyed.
//
// Backpressure is the per-shard bounded queues, the same rule as
// QueryExecutor: a Submit that finds a shard queue full blocks until that
// shard's worker takes a leg.
//
// Cross-shard bound sharing: the legs of one exact query share a
// KthBoundBoard (see kth_bound_board.h). A leg is seeded when its shard
// worker DEQUEUES it, so under load — shard queues deep, shards drifting
// apart — a laggard shard's leg starts with every bound the fast shards
// published meanwhile. Gated on exact_postprocess && policy == kExact at
// both ends; results are identical to sharing off, only node accesses
// drop. Per-query stats then depend on leg timing (a faster sibling shard
// means more pruning), so tests that lock stats bitwise turn sharing off.

#ifndef MST_SHARD_SHARD_FRONTEND_H_
#define MST_SHARD_SHARD_FRONTEND_H_

#include <future>
#include <memory>
#include <vector>

#include "src/exec/query_executor.h"
#include "src/shard/sharded_index.h"

namespace mst {

class ShardFrontEnd {
 public:
  struct Options {
    /// Per-shard submission-queue bound; a full shard queue blocks Submit.
    size_t per_shard_queue_capacity = 64;
    /// Cross-shard kth-bound sharing for exact queries (see header).
    bool share_cross_shard_bounds = true;
    /// Per-shard-executor cross-query result-cache entries (each shard
    /// worker owns one; 0 disables them).
    size_t result_cache_entries = 1 << 12;
  };

  /// `index` is not owned and must outlive the front-end. Spawns one
  /// worker per shard.
  ShardFrontEnd(const ShardedIndex* index, const Options& options);
  explicit ShardFrontEnd(const ShardedIndex* index)
      : ShardFrontEnd(index, Options()) {}

  /// Live-view form: one provider per shard (resolved by that shard's
  /// worker at dequeue time), the front door of a sharded ingest service —
  /// each shard's IngestEngine keeps publishing fresh snapshots while
  /// queries stream through. The providers must outlive the front-end.
  ShardFrontEnd(std::vector<IndexViewProvider> shard_views,
                const Options& options);

  ShardFrontEnd(const ShardFrontEnd&) = delete;
  ShardFrontEnd& operator=(const ShardFrontEnd&) = delete;

  /// Fans one query out to every shard. The deferred future's get() merges
  /// the legs into the top-k with exact aggregated stats, or resolves as
  /// cancelled if any shard dropped its leg (a partial merge would miss
  /// that shard's candidates). `request.kth_bound_board` is overwritten by
  /// the front-end (one fresh board per query). Thread-safe.
  std::future<QueryOutcome> Submit(QueryRequest request);

  /// Runs every request and returns outcomes in request order.
  std::vector<QueryOutcome> RunBatch(const std::vector<QueryRequest>& requests);

  /// Stops accepting queries, drains every submitted leg, joins all
  /// workers. Idempotent; late Submits resolve as cancelled.
  void Shutdown();

  int num_shards() const { return static_cast<int>(executors_.size()); }

 private:
  Options options_;
  std::vector<std::unique_ptr<QueryExecutor>> executors_;
};

}  // namespace mst

#endif  // MST_SHARD_SHARD_FRONTEND_H_
