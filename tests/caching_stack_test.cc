// The full caching stack under one roof: page buffer → decoded-node cache →
// cross-query result cache. Every combination of NodeCache on/off ×
// ResultCache on/off must leave both query families byte-identical to their
// scan oracles — exact-period k-MST through the concurrent executor vs
// LinearScanKMst, and time-relaxed k-MST vs TimeRelaxedKMst (whose index
// traversal runs above the node cache but never touches the result cache).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/core/time_relaxed.h"
#include "src/exec/query_executor.h"
#include "src/gen/gstd.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"

namespace mst {
namespace {

// (node cache enabled, result cache enabled)
class CachingStackTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  static void SetUpTestSuite() {
    GstdOptions opt;
    opt.num_objects = 48;
    opt.samples_per_object = 110;
    opt.seed = 4451;
    store_ = new TrajectoryStore(GenerateGstd(opt));
  }

  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }

  static const TrajectoryStore* store_;
};

const TrajectoryStore* CachingStackTest::store_ = nullptr;

TEST_P(CachingStackTest, ExactKMstMatchesLinearScanThroughExecutor) {
  const auto [node_cache_on, result_cache_on] = GetParam();
  TrajectoryIndex::Options idx_opt;
  idx_opt.node_cache_nodes = node_cache_on ? 4096 : 0;
  TBTree index(idx_opt);
  index.BuildFrom(*store_);
  ASSERT_EQ(index.node_cache().enabled(), node_cache_on);

  QueryExecutor::Options exec_opt;
  exec_opt.num_workers = 2;
  exec_opt.result_cache_entries = result_cache_on ? 1024 : 0;
  QueryExecutor executor(&index, store_, exec_opt);
  ASSERT_EQ(executor.result_cache().enabled(), result_cache_on);

  // Each query twice, so an enabled result cache serves the repeats.
  std::vector<QueryRequest> requests;
  Rng rng(71);
  for (int i = 0; i < 6; ++i) {
    const Trajectory& q =
        store_->trajectories()[rng.UniformIndex(store_->trajectories().size())];
    MstOptions q_opt;
    q_opt.k = 4;
    q_opt.exclude_id = q.id();
    requests.emplace_back(q, q.Lifespan(), q_opt);
    requests.emplace_back(q, q.Lifespan(), q_opt);
  }
  const std::vector<QueryOutcome> outcomes = executor.RunBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const QueryRequest& req = requests[i];
    const QueryOutcome& out = outcomes[i];
    ASSERT_FALSE(out.cancelled);
    const std::vector<MstResult> oracle =
        LinearScanKMst(*store_, req.query, req.period, req.options.k,
                       IntegrationPolicy::kExact, req.options.exclude_id);
    ASSERT_EQ(out.results.size(), oracle.size()) << "query " << i;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_EQ(out.results[j].id, oracle[j].id) << "query " << i;
      EXPECT_EQ(out.results[j].dissim, oracle[j].dissim) << "query " << i;
      EXPECT_EQ(out.results[j].error_bound, 0.0) << "query " << i;
    }
    // Disabled layers must stay completely silent.
    if (!node_cache_on) {
      EXPECT_EQ(out.stats.node_cache_hits, 0);
      EXPECT_EQ(out.stats.node_cache_misses, 0);
    }
    if (!result_cache_on) {
      EXPECT_EQ(out.stats.result_cache_hits, 0);
      EXPECT_EQ(out.stats.result_cache_misses, 0);
    } else {
      EXPECT_EQ(out.stats.result_cache_hits + out.stats.result_cache_misses,
                out.stats.exact_recomputations);
    }
  }
  if (result_cache_on) {
    EXPECT_GT(executor.result_cache().hits(), 0);
  }
}

TEST_P(CachingStackTest, TimeRelaxedMatchesScanOracleUnderEveryCacheConfig) {
  const auto [node_cache_on, result_cache_on] = GetParam();
  TrajectoryIndex::Options idx_opt;
  idx_opt.node_cache_nodes = node_cache_on ? 4096 : 0;
  TBTree index(idx_opt);
  index.BuildFrom(*store_);

  // A live result cache on the same index (fed by interleaved exact k-MST
  // queries) must not perturb the time-relaxed path, which bypasses it.
  ResultCache cache(result_cache_on ? 1024 : 0);
  const BFMstSearch kmst(&index, store_, &cache);

  Rng rng(73);
  for (int i = 0; i < 4; ++i) {
    const Trajectory& q =
        store_->trajectories()[rng.UniformIndex(store_->trajectories().size())];
    MstOptions q_opt;
    q_opt.k = 3;
    q_opt.exclude_id = q.id();
    (void)kmst.Search(q, q.Lifespan(), q_opt);

    const std::vector<TimeRelaxedMatch> scan =
        TimeRelaxedKMst(*store_, q, 3, q.id());
    TimeRelaxedSearchStats tr_cached_stats;
    const std::vector<TimeRelaxedMatch> indexed =
        TimeRelaxedIndexKMst(index, *store_, q, 3, q.id(),
                             /*coarse_steps=*/64, &tr_cached_stats);
    ASSERT_EQ(indexed.size(), scan.size());
    for (size_t j = 0; j < indexed.size(); ++j) {
      EXPECT_EQ(indexed[j].id, scan[j].id) << "rank " << j;
      EXPECT_EQ(indexed[j].dissim, scan[j].dissim) << "rank " << j;
      EXPECT_EQ(indexed[j].shift, scan[j].shift) << "rank " << j;
    }
    EXPECT_GT(tr_cached_stats.nodes_accessed, 0);
  }
}

// Node accesses of the time-relaxed traversal are cache-invariant, like the
// exact-period search's: pin it across the node-cache dimension directly.
TEST(CachingStackCrossCheckTest, TimeRelaxedNodeAccessesAreCacheInvariant) {
  GstdOptions opt;
  opt.num_objects = 32;
  opt.samples_per_object = 90;
  opt.seed = 4452;
  const TrajectoryStore store = GenerateGstd(opt);

  TBTree cached;
  cached.BuildFrom(store);
  TrajectoryIndex::Options no_cache_opt;
  no_cache_opt.node_cache_nodes = 0;
  TBTree uncached(no_cache_opt);
  uncached.BuildFrom(store);

  const Trajectory& q = store.trajectories()[5];
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the warm cache
    TimeRelaxedSearchStats with_cache;
    TimeRelaxedSearchStats without_cache;
    const auto a =
        TimeRelaxedIndexKMst(cached, store, q, 3, q.id(), 64, &with_cache);
    const auto b =
        TimeRelaxedIndexKMst(uncached, store, q, 3, q.id(), 64, &without_cache);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].dissim, b[j].dissim);
    }
    EXPECT_EQ(with_cache.nodes_accessed, without_cache.nodes_accessed);
    EXPECT_EQ(with_cache.candidates_refined, without_cache.candidates_refined);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCacheConfigs, CachingStackTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "NodeCacheOn"
                                                 : "NodeCacheOff") +
             (std::get<1>(info.param) ? "_ResultCacheOn" : "_ResultCacheOff");
    });

}  // namespace
}  // namespace mst
