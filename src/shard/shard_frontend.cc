#include "src/shard/shard_frontend.h"

#include <utility>

#include "src/shard/scatter_gather.h"
#include "src/util/check.h"

namespace mst {

namespace {

// The per-shard static views of a built ShardedIndex, for delegation to the
// provider-based constructor.
std::vector<IndexViewProvider> StaticShardViews(const ShardedIndex* index) {
  MST_CHECK(index != nullptr);
  MST_CHECK(index->num_shards() >= 1);
  std::vector<IndexViewProvider> views;
  views.reserve(static_cast<size_t>(index->num_shards()));
  for (int s = 0; s < index->num_shards(); ++s) {
    const ShardedIndex::Shard& shard = index->shard(s);
    views.push_back(
        [view = MakeStaticIndexView(shard.index.get(), &shard.store)] {
          return view;
        });
  }
  return views;
}

// Awaits every shard leg of one query and merges them into its top-k with
// exact aggregated stats. A leg a shard executor dropped (only possible
// during shutdown) cancels the whole query: a partial merge would silently
// miss that shard's candidates.
QueryOutcome MergeLegs(std::vector<std::future<QueryOutcome>> legs, int k) {
  std::vector<std::vector<MstResult>> shard_results;
  std::vector<MstStats> leg_stats;
  shard_results.reserve(legs.size());
  leg_stats.reserve(legs.size());
  bool cancelled = false;
  for (std::future<QueryOutcome>& leg : legs) {
    QueryOutcome out = leg.get();
    cancelled |= out.cancelled;
    shard_results.push_back(std::move(out.results));
    leg_stats.push_back(out.stats);
  }
  QueryOutcome out;
  if (cancelled) {
    out.cancelled = true;
  } else {
    out.results =
        ScatterGatherSearch::MergeShardResults(std::move(shard_results), k);
    out.stats = ScatterGatherSearch::AggregateShardStats(leg_stats);
  }
  return out;
}

}  // namespace

ShardFrontEnd::ShardFrontEnd(const ShardedIndex* index, const Options& options)
    : ShardFrontEnd(StaticShardViews(index), options) {}

ShardFrontEnd::ShardFrontEnd(std::vector<IndexViewProvider> shard_views,
                             const Options& options)
    : options_(options) {
  MST_CHECK(!shard_views.empty());
  executors_.reserve(shard_views.size());
  for (IndexViewProvider& provider : shard_views) {
    QueryExecutor::Options exec_opt;
    exec_opt.num_workers = 1;  // single-threaded shard stack
    exec_opt.queue_capacity = options.per_shard_queue_capacity;
    exec_opt.result_cache_entries = options.result_cache_entries;
    executors_.push_back(
        std::make_unique<QueryExecutor>(std::move(provider), exec_opt));
  }
}

std::future<QueryOutcome> ShardFrontEnd::Submit(QueryRequest request) {
  // One fresh bound board per query, shared by its shard legs; the
  // executor applies the exact-policy gate at both seed and publish (see
  // QueryRequest::kth_bound_board), so handing a board to a non-exact
  // query is inert rather than unsound.
  std::shared_ptr<KthBoundBoard> board;
  if (options_.share_cross_shard_bounds && num_shards() > 1) {
    board = std::make_shared<KthBoundBoard>();
  }
  std::vector<std::future<QueryOutcome>> legs;
  legs.reserve(executors_.size());
  for (std::unique_ptr<QueryExecutor>& executor : executors_) {
    QueryRequest leg = request;
    leg.kth_bound_board = board;
    legs.push_back(executor->Submit(std::move(leg)));
  }
  // Deferred: the merge runs on the thread that calls get(), and the
  // future owns everything it needs, so it outlives the front end.
  return std::async(std::launch::deferred, MergeLegs, std::move(legs),
                    request.options.k);
}

std::vector<QueryOutcome> ShardFrontEnd::RunBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<std::future<QueryOutcome>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(Submit(request));
  }
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(requests.size());
  for (std::future<QueryOutcome>& future : futures) {
    outcomes.push_back(future.get());
  }
  return outcomes;
}

void ShardFrontEnd::Shutdown() {
  for (std::unique_ptr<QueryExecutor>& executor : executors_) {
    executor->Shutdown(QueryExecutor::DrainMode::kDrain);
  }
}

}  // namespace mst
