// Streaming-ingestion benchmark for the WAL + delta-index write path. An
// S-series dataset is replayed as a time-ordered stream of small sample
// batches through IngestEngine, measuring three things the static-index
// benches cannot:
//
//   append  — durable append throughput with concurrent writers sharing
//             group commits (batches/s, records/s, batches per fsync),
//   query   — k-MST query throughput served from live snapshot views WHILE
//             the writers are streaming, vs the same query set against the
//             quiesced (fully merged) engine,
//   recover — cold-start WAL replay of the whole stream.
//
// The bench is also an identity gate: after quiescing, every query must
// answer byte-for-byte like a fresh STR bulk-load of the materialized
// store, and a recovered engine must answer byte-for-byte like the one
// that wrote the log. Any divergence exits 2 (the CI perf-smoke job runs
// this with --quick, so a correctness break in the write path fails the
// build even before the test jobs finish). Exit 3 when the JSON cannot be
// written, 1 on bad flags.
//
// group_commit_ratio (batches per WAL sync) depends on the writer count and
// the machine, not on the stream's size, so it is the JSON field the CI
// guard can compare between a --quick run and the full-scale baseline.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/index/rtree3d.h"
#include "src/ingest/ingest_engine.h"
#include "src/ingest/wal_storage.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace mst {
namespace {

/// One writer's share of the stream: the dataset's samples restricted to
/// the ids this writer owns, in global time order, chunked into batches.
using Schedule = std::vector<std::vector<WalRecord>>;

/// Flattens `store` into per-writer batch schedules. Records are globally
/// time-ordered before chunking (a live feed delivers roughly by time);
/// ids are partitioned across writers so every interleaving of writer
/// threads is a valid stream (timestamps per id stay strictly increasing).
std::vector<Schedule> MakeSchedules(const TrajectoryStore& store,
                                    int writers, int batch_records) {
  struct Flat {
    double t;
    WalRecord record;
  };
  std::vector<Flat> flat;
  for (const Trajectory& trajectory : store.trajectories()) {
    for (const TPoint& s : trajectory.samples()) {
      flat.push_back({s.t, {trajectory.id(), s.t, s.p.x, s.p.y}});
    }
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const Flat& a, const Flat& b) { return a.t < b.t; });

  std::vector<Schedule> schedules(static_cast<size_t>(writers));
  for (const Flat& f : flat) {
    Schedule& mine = schedules[static_cast<size_t>(
        f.record.traj_id % static_cast<TrajectoryId>(writers))];
    if (mine.empty() ||
        mine.back().size() == static_cast<size_t>(batch_records)) {
      mine.emplace_back();
    }
    mine.back().push_back(f.record);
  }
  return schedules;
}

MstOptions ExactOptions(int k) {
  MstOptions options;
  options.k = k;
  options.policy = IntegrationPolicy::kExact;
  options.exact_postprocess = true;
  return options;
}

/// Appends each schedule's batches in [from, to) (fractions of its length)
/// from one thread per writer. Returns wall seconds until every batch is
/// durable + applied.
double RunWriters(IngestEngine* engine, const std::vector<Schedule>& schedules,
                  double from = 0.0, double to = 1.0) {
  WallTimer timer;
  std::vector<std::thread> threads;
  for (const Schedule& schedule : schedules) {
    threads.emplace_back([engine, &schedule, from, to] {
      const size_t begin =
          static_cast<size_t>(from * static_cast<double>(schedule.size()));
      const size_t end =
          static_cast<size_t>(to * static_cast<double>(schedule.size()));
      for (size_t b = begin; b < end; ++b) {
        if (!engine->Append(schedule[b])) {
          std::fprintf(stderr, "[ingest] append rejected mid-stream\n");
          std::abort();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timer.ElapsedMs() / 1e3;
}

bool ResultsEqual(const std::vector<MstResult>& got,
                  const std::vector<MstResult>& want, const char* what,
                  size_t query_index) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "[ingest] FAIL %s: query %zu returned %zu results, "
                         "oracle %zu\n",
                 what, query_index, got.size(), want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].dissim != want[i].dissim ||
        got[i].error_bound != want[i].error_bound) {
      std::fprintf(stderr,
                   "[ingest] FAIL %s: query %zu leg %zu diverges "
                   "(id %" PRId64 " vs %" PRId64 ", dissim %.17g vs %.17g)\n",
                   what, query_index, i, static_cast<int64_t>(got[i].id),
                   static_cast<int64_t>(want[i].id), got[i].dissim,
                   want[i].dissim);
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) {
  using namespace mst;

  int64_t objects = 200;
  int64_t samples = 400;
  int64_t batch_records = 32;
  int64_t writers = 3;
  int64_t queries = 24;
  int64_t k = 10;
  int64_t seed = static_cast<int64_t>(bench::kDefaultBenchSeed);
  double length = 0.5;
  bool quick = false;
  bool help = false;
  std::string out_path = "BENCH_ingest.json";

  FlagParser flags;
  flags.AddInt("objects", &objects, "dataset cardinality (S-series)");
  flags.AddInt("samples", &samples, "samples per object");
  flags.AddInt("batch_records", &batch_records, "records per append batch");
  flags.AddInt("writers", &writers, "concurrent writer threads");
  flags.AddInt("queries", &queries, "k-MST queries in the query set");
  flags.AddInt("k", &k, "k of the k-MST queries");
  flags.AddInt("seed", &seed, "workload RNG seed");
  flags.AddDouble("length", &length, "query length fraction of a lifespan");
  flags.AddBool("quick", &quick, "CI smoke mode: small stream, few queries");
  flags.AddBool("help", &help, "print usage");
  flags.AddString("out", &out_path, "JSON output path");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_ingest");
    return 0;
  }
  if (quick) {
    objects = 60;
    samples = 120;
    queries = 8;
  }

  std::fprintf(stderr, "[ingest] building %s (%" PRId64 " samples/obj)...\n",
               bench::SDatasetName(static_cast<int>(objects)).c_str(),
               samples);
  const TrajectoryStore store = bench::MakeSDataset(
      static_cast<int>(objects), static_cast<int>(samples),
      static_cast<uint64_t>(seed) == bench::kDefaultBenchSeed
          ? 0
          : static_cast<uint64_t>(seed));
  const std::vector<Schedule> schedules = MakeSchedules(
      store, static_cast<int>(writers), static_cast<int>(batch_records));
  int64_t total_batches = 0;
  int64_t total_records = 0;
  for (const Schedule& s : schedules) {
    total_batches += static_cast<int64_t>(s.size());
    for (const auto& b : s) total_records += static_cast<int64_t>(b.size());
  }

  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Trajectory> query_set;
  query_set.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    query_set.push_back(bench::MakeQuery(store, &rng, length));
  }
  const MstOptions options = ExactOptions(static_cast<int>(k));

  IngestEngine::Options engine_options;
  engine_options.background_merge = true;
  engine_options.merge_threshold_entries = 1024;

  // Leg 1: pure append throughput (writers only, background merger on).
  std::fprintf(stderr,
               "[ingest] appending %" PRId64 " batches / %" PRId64
               " records from %" PRId64 " writers...\n",
               total_batches, total_records, writers);
  double append_seconds;
  uint64_t wal_syncs;
  {
    MemWalStorageSet storage;
    IngestEngine engine(&storage, engine_options);
    append_seconds = RunWriters(&engine, schedules);
    wal_syncs = engine.wal().sync_count();
  }

  // Leg 2: query throughput while the same stream is being ingested, into
  // a fresh engine whose storage we keep for the recovery leg.
  std::fprintf(stderr, "[ingest] querying during ingest...\n");
  MemWalStorageSet live_storage;
  int64_t queries_during = 0;
  double during_seconds;
  double quiesced_seconds;
  bool identity_ok = true;
  {
    IngestEngine engine(&live_storage, engine_options);
    // Pre-load the first half of the stream so the measured query window
    // sees a steady-state index, not the trivial empty-index ramp.
    RunWriters(&engine, schedules, 0.0, 0.5);
    std::atomic<bool> done{false};
    std::thread writer_driver([&engine, &schedules, &done] {
      RunWriters(&engine, schedules, 0.5, 1.0);
      done.store(true, std::memory_order_release);
    });
    WallTimer during_timer;
    while (!done.load(std::memory_order_acquire)) {
      const Trajectory& q =
          query_set[static_cast<size_t>(queries_during) % query_set.size()];
      (void)engine.Search(q, q.Lifespan(), options);
      ++queries_during;
    }
    during_seconds = during_timer.ElapsedMs() / 1e3;
    writer_driver.join();

    // Quiesce, then measure the same query set against the merged engine.
    engine.Merge();
    WallTimer quiesced_timer;
    std::vector<std::vector<MstResult>> quiesced;
    quiesced.reserve(query_set.size());
    for (const Trajectory& q : query_set) {
      quiesced.push_back(engine.Search(q, q.Lifespan(), options));
    }
    quiesced_seconds = quiesced_timer.ElapsedMs() / 1e3;

    // Identity gate: quiesced engine == fresh STR bulk-load of its store.
    const TrajectoryStore materialized = engine.MaterializeStore();
    RTree3D oracle_tree{TrajectoryIndex::Options()};
    oracle_tree.BulkLoad(materialized);
    const BFMstSearch oracle(&oracle_tree, &materialized);
    for (size_t qi = 0; qi < query_set.size(); ++qi) {
      const auto want = oracle.Search(query_set[qi], query_set[qi].Lifespan(),
                                      options);
      identity_ok =
          ResultsEqual(quiesced[qi], want, "quiesced-vs-bulk", qi) &&
          identity_ok;
    }
  }  // engine destroyed; live_storage holds the full durable log

  // Leg 3: cold-start recovery replaying the whole WAL, then the recovered
  // engine must answer exactly like the quiesced original (same oracle).
  std::fprintf(stderr, "[ingest] recovering from the WAL...\n");
  WallTimer recovery_timer;
  WalRecoveryInfo recovery;
  IngestEngine recovered(&live_storage, engine_options, &recovery);
  const double recovery_seconds = recovery_timer.ElapsedMs() / 1e3;
  if (static_cast<int64_t>(recovery.committed_batches) != total_batches) {
    std::fprintf(stderr,
                 "[ingest] FAIL recovery: %" PRIu64 " batches recovered, "
                 "%" PRId64 " written\n",
                 recovery.committed_batches, total_batches);
    identity_ok = false;
  }
  {
    const TrajectoryStore materialized = recovered.MaterializeStore();
    RTree3D oracle_tree{TrajectoryIndex::Options()};
    oracle_tree.BulkLoad(materialized);
    const BFMstSearch oracle(&oracle_tree, &materialized);
    for (size_t qi = 0; qi < query_set.size(); ++qi) {
      const auto got = recovered.Search(query_set[qi],
                                        query_set[qi].Lifespan(), options);
      const auto want = oracle.Search(query_set[qi],
                                      query_set[qi].Lifespan(), options);
      identity_ok =
          ResultsEqual(got, want, "recovered-vs-bulk", qi) && identity_ok;
    }
  }
  if (!identity_ok) return 2;

  const double batches_per_sec =
      static_cast<double>(total_batches) / append_seconds;
  const double records_per_sec =
      static_cast<double>(total_records) / append_seconds;
  const double batches_per_sync =
      wal_syncs > 0 ? static_cast<double>(total_batches) /
                          static_cast<double>(wal_syncs)
                    : 0.0;
  const double qps_during =
      static_cast<double>(queries_during) / during_seconds;
  const double qps_quiesced =
      static_cast<double>(query_set.size()) / quiesced_seconds;

  std::printf("== Streaming ingestion (WAL + delta index) ==\n");
  std::printf("dataset %s, %" PRId64 " records in %" PRId64
              " batches, %" PRId64 " writers\n",
              bench::SDatasetName(static_cast<int>(objects)).c_str(),
              total_records, total_batches, writers);
  std::printf("append       : %8.0f batches/s  (%8.0f records/s, "
              "%.2f batches/fsync)\n",
              batches_per_sec, records_per_sec, batches_per_sync);
  std::printf("query live   : %8.1f q/s  (during ingest, %" PRId64
              " queries)\n",
              qps_during, queries_during);
  std::printf("query merged : %8.1f q/s  (quiesced)\n", qps_quiesced);
  std::printf("recovery     : %8.1f ms  (%" PRIu64 " batches replayed)\n",
              recovery_seconds * 1e3, recovery.committed_batches);
  std::printf("identity     : ok (quiesced == bulk-load, recovered == "
              "bulk-load)\n");

  if (std::FILE* f = bench::OpenBenchJson(out_path)) {
    std::fprintf(f,
                 "  \"dataset\": \"%s\",\n"
                 "  \"samples_per_object\": %" PRId64 ",\n"
                 "  \"batch_records\": %" PRId64 ",\n"
                 "  \"writers\": %" PRId64 ",\n"
                 "  \"queries\": %" PRId64 ",\n"
                 "  \"k\": %" PRId64 ",\n"
                 "  \"length_fraction\": %.2f,\n"
                 "  \"seed\": %" PRId64 ",\n"
                 "  \"hardware_threads\": %u,\n",
                 bench::SDatasetName(static_cast<int>(objects)).c_str(),
                 samples, batch_records, writers, queries, k, length, seed,
                 std::thread::hardware_concurrency());
    std::fprintf(f,
                 "  \"append_batches\": %" PRId64 ",\n"
                 "  \"append_records\": %" PRId64 ",\n"
                 "  \"wal_syncs\": %" PRIu64 ",\n"
                 "  \"group_commit_ratio\": %.3f,\n"
                 "  \"qps_append_batches\": %.1f,\n"
                 "  \"qps_append_records\": %.1f,\n"
                 "  \"qps_during_ingest\": %.2f,\n"
                 "  \"qps_quiesced\": %.2f,\n"
                 "  \"recovery_ms\": %.2f,\n"
                 "  \"recovered_batches\": %" PRIu64 ",\n"
                 "  \"identity\": \"ok\"\n"
                 "}\n",
                 total_batches, total_records, wal_syncs, batches_per_sync,
                 batches_per_sec, records_per_sec, qps_during, qps_quiesced,
                 recovery_seconds * 1e3, recovery.committed_batches);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "[ingest] cannot write %s\n", out_path.c_str());
    return 3;
  }
  return 0;
}
