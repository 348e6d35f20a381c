#include "bench_e2e/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "src/core/result_cache.h"
#include "src/exec/query_executor.h"
#include "src/geom/mindist.h"
#include "src/index/rtree3d.h"
#include "src/ingest/ingest_engine.h"
#include "src/ingest/wal_storage.h"
#include "src/shard/scatter_gather.h"
#include "src/shard/shard_frontend.h"
#include "src/shard/sharded_index.h"
#include "src/util/random.h"

namespace e2e {
namespace {

using mst::MstResult;
using mst::MstStats;
using mst::QueryOutcome;
using mst::QueryRequest;

constexpr double kNsPerMs = 1e6;

// ---- Per-request bookkeeping ------------------------------------------------

// What the benchmark learns about one timed request, from the client side
// (submit/answer) and from its own view-provider wrappers (dequeue, view).
struct Record {
  int64_t submit_ns = 0;
  int64_t answer_ns = 0;
  int64_t dequeue_ns = 0;             // provider call on the worker
  int64_t view_ns = 0;                // ingest_mix: View() duration
  int64_t delta_entries = 0;          // ingest_mix: delta size at dequeue
  int64_t leg_dequeue_ns[2] = {0, 0};  // sharded_mix: per-shard dequeue
  int pool = -1;                      // hot_repeat: pool entry
  bool failed = false;                // cancelled or rejected
  MstStats stats;
  int64_t results = 0;
};

// Dequeue-order stamping. A provider is called once per dequeued request,
// and the queue is FIFO, so the n-th call belongs to the n-th submitted
// request. With one worker per queue this is exact; with several workers
// two requests dequeued within the same instant can swap stamps, an error
// bounded by the gap between their dequeues.
struct DequeueLog {
  std::atomic<bool> active{false};
  std::atomic<int64_t> next{0};
  std::vector<Record>* records = nullptr;

  Record* Claim() {
    const int64_t n = next.fetch_add(1, std::memory_order_relaxed);
    if (n < 0 || n >= static_cast<int64_t>(records->size())) return nullptr;
    return &(*records)[static_cast<size_t>(n)];
  }
};

// One (main [+ delta], source) stack the replay and the kernel samples run
// against. Caches are reset through the public buffer()/node_cache().
struct Stack {
  const mst::TrajectoryIndex* main = nullptr;
  const mst::TrajectoryIndex* delta = nullptr;
  const mst::TrajectorySource* source = nullptr;
};

struct IndexCounters {
  int64_t physical_reads = 0;
  int64_t logical_reads = 0;
  int64_t misses = 0;
};

// Physical reads come from the PageFile where the benchmark owns the index;
// for the ingest engine's shared, read-only trees they are the buffer misses
// (every miss is exactly one PageFile read).
IndexCounters ReadCounters(mst::TrajectoryIndex& index) {
  return {index.file().stats().physical_reads, index.buffer().logical_reads(),
          index.buffer().misses()};
}

IndexCounters ReadCounters(const mst::TrajectoryIndex& index) {
  return {index.buffer().misses(), index.buffer().logical_reads(),
          index.buffer().misses()};
}

IndexCounters operator-(IndexCounters a, const IndexCounters& b) {
  a.physical_reads -= b.physical_reads;
  a.logical_reads -= b.logical_reads;
  a.misses -= b.misses;
  return a;
}

IndexCounters& operator+=(IndexCounters& a, const IndexCounters& b) {
  a.physical_reads += b.physical_reads;
  a.logical_reads += b.logical_reads;
  a.misses += b.misses;
  return a;
}

// One timed window.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Process CPU seconds at each sub-window boundary (see SampleCpu).
  std::vector<int64_t> mark_ns;
  std::vector<double> mark_cpu_s;
  std::vector<Record> records;  // every request submitted in the window
  std::vector<QuerySpec> specs;  // parallel to records
  std::vector<std::vector<MstResult>> answers;  // parallel; kept if checked
  IndexCounters counters;        // index layer, over the window
  std::vector<double> batch_ms;  // hot_repeat
  std::vector<double> append_ms;  // ingest_mix, from due time
  std::vector<double> merge_s;    // ingest_mix
  double writer_late_ms_max = 0.0;
  int64_t appends = 0;
  int64_t appends_failed = 0;
  int64_t records_appended = 0;
  int64_t publishes = 0;
  double duplicate_share = 0.0;
};

// Sub-window length of the qps and cpu_ms_per_query medians.
constexpr double kSubWindowSeconds = 1.5;

// Records process CPU time at every sub-window boundary of `w`, sleeping in
// between; returns at the window's end.
void SampleCpu(Window* w) {
  const auto step = static_cast<int64_t>(kSubWindowSeconds * 1e9);
  for (int64_t t = w->start_ns; t < w->end_ns; t += step) {
    SleepUntilNs(t);
    w->mark_ns.push_back(NowNs());
    w->mark_cpu_s.push_back(ProcessCpuSeconds());
  }
  SleepUntilNs(w->end_ns);
  w->mark_ns.push_back(NowNs());
  w->mark_cpu_s.push_back(ProcessCpuSeconds());
}

// ---- Closed loop over Submit ---------------------------------------------

using SubmitFn = std::function<std::future<QueryOutcome>(QueryRequest)>;
using MakeFn = std::function<QuerySpec(int64_t seq)>;
// Called on the client thread right after an answer arrives.
using AnswerFn = std::function<void(int64_t seq, const QueryOutcome&)>;

// `slots` client threads each keep one request outstanding, so `slots`
// requests are in flight at all times. Submission is serialized so the
// queue order equals the sequence number order (see DequeueLog). The window
// starts now unless the caller already set w->start_ns/end_ns.
void RunClosedLoop(int slots, double seconds, size_t capacity,
                   const MakeFn& make, const SubmitFn& submit,
                   const AnswerFn& on_answer, Window* w) {
  w->records.assign(capacity, Record{});
  w->specs.assign(capacity, QuerySpec{});
  w->answers.assign(capacity, {});
  std::mutex submit_mu;
  int64_t next = 0;
  if (w->start_ns == 0) {
    w->start_ns = NowNs();
    w->end_ns = w->start_ns + static_cast<int64_t>(seconds * 1e9);
  }
  std::vector<std::thread> clients;
  for (int s = 0; s < slots; ++s) {
    clients.emplace_back([&] {
      for (;;) {
        int64_t seq = 0;
        std::future<QueryOutcome> future;
        {
          std::lock_guard<std::mutex> lock(submit_mu);
          if (NowNs() >= w->end_ns ||
              next >= static_cast<int64_t>(capacity)) {
            return;
          }
          seq = next++;
          QuerySpec& spec = w->specs[static_cast<size_t>(seq)];
          spec = make(seq);
          QueryRequest request(spec.query, spec.period, spec.options);
          w->records[static_cast<size_t>(seq)].submit_ns = NowNs();
          future = submit(std::move(request));
        }
        QueryOutcome out = future.get();
        Record& rec = w->records[static_cast<size_t>(seq)];
        rec.answer_ns = NowNs();
        rec.failed = out.cancelled || out.rejected;
        rec.stats = out.stats;
        rec.results = static_cast<int64_t>(out.results.size());
        on_answer(seq, out);
      }
    });
  }
  SampleCpu(w);
  for (std::thread& t : clients) t.join();
  w->records.resize(static_cast<size_t>(next));
  w->specs.resize(static_cast<size_t>(next));
  w->answers.resize(static_cast<size_t>(next));
}

// ---- Replay, self-check and kernel samples (traced run only) --------------

struct ReplayQuery {
  double ms = 0.0;
  MstStats stats;
  std::vector<MstResult> results;
};

void ResetCaches(const std::vector<Stack>& stacks) {
  for (const Stack& s : stacks) {
    for (const mst::TrajectoryIndex* index : {s.main, s.delta}) {
      if (index == nullptr) continue;
      index->buffer().Clear();
      index->node_cache().Clear();
    }
  }
}

int64_t BufferMisses(const std::vector<Stack>& stacks) {
  int64_t n = 0;
  for (const Stack& s : stacks) {
    n += s.main->buffer().misses();
    if (s.delta != nullptr) n += s.delta->buffer().misses();
  }
  return n;
}

// Single-thread replay: every stack searched in turn (the shard legs of one
// query run back to back), results merged like the front end merges them.
std::vector<ReplayQuery> Replay(const std::vector<QuerySpec>& specs,
                                const std::vector<Stack>& stacks,
                                Tracer* tracer,
                                const std::vector<int64_t>* request_ids) {
  std::vector<ReplayQuery> out(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const QuerySpec& spec = specs[i];
    std::vector<std::vector<MstResult>> legs;
    std::vector<MstStats> leg_stats;
    const int64_t t0 = NowNs();
    for (const Stack& s : stacks) {
      const mst::BFMstSearch searcher(s.main, s.source, nullptr, s.delta);
      MstStats stats;
      legs.push_back(
          searcher.Search(spec.query, spec.period, spec.options, &stats));
      leg_stats.push_back(stats);
    }
    const int64_t t1 = NowNs();
    out[i].ms = static_cast<double>(t1 - t0) / kNsPerMs;
    out[i].stats = mst::ScatterGatherSearch::AggregateShardStats(leg_stats);
    out[i].results = mst::ScatterGatherSearch::MergeShardResults(
        std::move(legs), spec.options.k);
    if (tracer != nullptr) {
      Span span;
      span.name = "core.search";
      span.begin_ns = t0;
      span.end_ns = t1;
      span.request = request_ids != nullptr ? (*request_ids)[i] : 0;
      tracer->Add(span);
    }
  }
  return out;
}

// Kernel results land here so the timed calls cannot be optimized away.
volatile double g_kernel_sink = 0.0;

struct KernelTimes {
  std::vector<double> segment_dissim_ns;  // per call, batch-averaged
  std::vector<double> mindist_ns;
  // All sampled MinDist time over the calls that returned a finite
  // distance: the search pushes exactly those (heap_pushes), while the
  // +inf calls cost time without a push.
  double mindist_total_ns = 0.0;
  int64_t mindist_finite = 0;
  std::vector<double> refine_us;
  std::vector<double> read_node_miss_us;
  std::vector<double> read_node_hit_ns;
};

// Times the core/geom kernels on inputs the search itself would see: for
// each sampled query, MinDist over the entries of internal nodes whose boxes
// overlap the query period, ComputeSegmentDissim over the entries of up to
// eight leaves overlapping it, and ComputeDissim(kExact) of every returned
// result (the post-processing refinement).
void SampleKernels(const std::vector<QuerySpec>& specs,
                   const std::vector<ReplayQuery>& replayed,
                   const std::vector<int64_t>& request_ids,
                   const Stack& stack, Tracer* tracer, KernelTimes* out) {
  constexpr size_t kLeavesPerQuery = 8;
  constexpr size_t kInternalsPerQuery = 16;
  const mst::TrajectoryIndex& index = *stack.main;
  for (size_t i = 0; i < specs.size(); ++i) {
    const QuerySpec& spec = specs[i];
    const int64_t request = request_ids[i];
    // Depth-first descent through the children whose time extent overlaps
    // the period, until enough leaves are collected.
    std::vector<mst::PageId> stack_pages{index.root()};
    std::vector<mst::PageId> leaves;
    size_t internals = 0;
    double sink = 0.0;
    while (!stack_pages.empty() && leaves.size() < kLeavesPerQuery) {
      const mst::PageId page = stack_pages.back();
      stack_pages.pop_back();
      const mst::NodeRef node = index.ReadNode(page);
      if (node->IsLeaf()) {
        leaves.push_back(page);
        continue;
      }
      const auto n = static_cast<int64_t>(node->internals.size());
      if (internals++ < kInternalsPerQuery && n > 0) {
        int64_t finite = 0;
        const int64_t t0 = NowNs();
        for (const mst::InternalEntry& e : node->internals) {
          const double d = mst::MinDist(spec.query, e.mbb, spec.period);
          finite += std::isinf(d) ? 0 : 1;
        }
        const int64_t t1 = NowNs();
        out->mindist_ns.push_back(static_cast<double>(t1 - t0) /
                                  static_cast<double>(n));
        out->mindist_total_ns += static_cast<double>(t1 - t0);
        out->mindist_finite += finite;
        tracer->Add({"geom.mindist", t0, t1, 0, 0, request, n});
      }
      for (const mst::InternalEntry& e : node->internals) {
        if (e.mbb.TimeExtent().Overlaps(spec.period)) {
          stack_pages.push_back(e.child);
        }
      }
    }
    for (const mst::PageId page : leaves) {
      const mst::TrajectoryIndex::LeafPageRead leaf =
          index.ReadLeafColumns(page);
      const mst::LeafView& view = leaf.view;
      std::vector<mst::TimeInterval> windows;
      std::vector<int> entries;
      for (int j = 0; j < view.count; ++j) {
        const mst::TimeInterval w =
            mst::TimeInterval{view.t0[j], view.t1[j]}.Intersect(spec.period);
        if (w.Duration() > 0.0) {
          windows.push_back(w);
          entries.push_back(j);
        }
      }
      if (entries.empty()) continue;
      const int64_t t0 = NowNs();
      for (size_t e = 0; e < entries.size(); ++e) {
        sink += mst::ComputeSegmentDissim(spec.query, view, entries[e],
                                          windows[e], spec.options.policy)
                    .integral.value;
      }
      const int64_t t1 = NowNs();
      const auto n = static_cast<int64_t>(entries.size());
      out->segment_dissim_ns.push_back(static_cast<double>(t1 - t0) /
                                       static_cast<double>(n));
      tracer->Add({"core.segment_dissim", t0, t1, 0, 0, request, n});
    }
    for (const MstResult& r : replayed[i].results) {
      const mst::Trajectory* t = stack.source->Find(r.id);
      if (t == nullptr) continue;  // result held by another shard
      const int64_t t0 = NowNs();
      sink += mst::ComputeDissim(spec.query, *t, spec.period,
                                 mst::IntegrationPolicy::kExact)
                  .value;
      const int64_t t1 = NowNs();
      out->refine_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      tracer->Add({"core.refine", t0, t1, 0, 0, request, 1});
    }
    g_kernel_sink = sink;
  }

  // ReadNode on seeded pages: first read after dropping both caches (a
  // buffer miss plus decode), then again (a decoded-node cache hit).
  ResetCaches({stack});
  mst::Rng rng(0x7ead0dedULL ^ static_cast<uint64_t>(index.NodeCount()));
  std::set<mst::PageId> pages;
  const size_t want = std::min<size_t>(
      256, static_cast<size_t>(std::max<int64_t>(index.NodeCount(), 1)));
  while (pages.size() < want) {
    pages.insert(static_cast<mst::PageId>(
        rng.UniformIndex(static_cast<uint64_t>(index.NodeCount()))));
  }
  for (const bool hit : {false, true}) {
    for (const mst::PageId page : pages) {
      const int64_t t0 = NowNs();
      const mst::NodeRef node = index.ReadNode(page);
      const int64_t t1 = NowNs();
      if (hit) {
        out->read_node_hit_ns.push_back(static_cast<double>(t1 - t0));
      } else {
        out->read_node_miss_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      tracer->Add({"index.read_node", t0, t1, 0, 0, 0, 1});
    }
  }
}

// ---- Workload interface ----------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the full state from scratch (data, index, executor, warm-up),
  /// replacing any previous state. Returns the index build seconds.
  virtual double Setup(uint64_t seed) = 0;
  /// One timed window. `trace` switches on the provider stamps.
  virtual Window Run(double seconds, bool trace, Tracer* tracer) = 0;
  /// Oracle checks of the window's answers; appends failures.
  virtual void Verify(Window* w, RunResult* result) = 0;
  /// index_bytes_per_segment at the end of the run.
  virtual double IndexBytesPerSegment() = 0;
  /// Stacks for the single-thread replay and the kernel samples.
  virtual std::vector<Stack> Stacks() = 0;
  /// Indices into the window's requests replayed by the traced run.
  virtual std::vector<size_t> ReplaySample(const Window& w) = 0;
  /// The query set seed `other` would generate differs from this seed's.
  virtual bool QuerySetDiffers(uint64_t seed, uint64_t other) = 0;
  /// Workload-specific per-layer metrics.
  virtual void LayerMetrics(const Window& w, Report* report) = 0;
};

// Oracle check of a set of request indices against LinearScan over `store`.
void CheckAgainstScan(const mst::TrajectoryStore& store, Window* w,
                      const std::vector<size_t>& checked, RunResult* result,
                      const char* label) {
  std::vector<char> ok(checked.size(), 1);
  ParallelFor(static_cast<int>(checked.size()), 4, [&](int i) {
    const size_t r = checked[static_cast<size_t>(i)];
    ok[static_cast<size_t>(i)] =
        SameAnswer(w->answers[r], OracleAnswer(store, w->specs[r])) ? 1 : 0;
  });
  for (size_t i = 0; i < checked.size(); ++i) {
    if (ok[i]) continue;
    ++result->failed;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: request %zu (%s) disagrees with "
                  "LinearScan", label, checked[i],
                  CellName(PaperCells()[static_cast<size_t>(
                               w->specs[checked[i]].cell)])
                      .c_str());
    result->failures.push_back(buf);
  }
  result->report.Set("oracle.checked", static_cast<double>(checked.size()),
                     "count");
}

// Requests of the window kept for the oracle: every 8th round of the 12-cell
// rotation (all 12 cells each round), at most 16 rounds.
bool PaperMixChecked(int64_t seq) {
  const int64_t round = seq / 12;
  return round % 8 == 0 && round / 8 < 16;
}

std::vector<size_t> CheckedIndices(const Window& w) {
  std::vector<size_t> out;
  for (size_t i = 0; i < w.records.size(); ++i) {
    if (PaperMixChecked(static_cast<int64_t>(i)) && !w.records[i].failed) {
      out.push_back(i);
    }
  }
  return out;
}

// The replay sample of the paper-mix workloads: the first ten checked
// rounds (120 requests, 10 per cell).
std::vector<size_t> PaperMixReplaySample(const Window& w) {
  std::vector<size_t> out = CheckedIndices(w);
  if (out.size() > 120) out.resize(120);
  return out;
}

// Request `index` of the paper mix: cell index mod 12.
QuerySpec PaperMixQuery(const mst::TrajectoryStore& store, uint64_t seed,
                        uint64_t index) {
  const int cell = static_cast<int>(index % 12);
  return MakeSliceQuery(store, seed, index,
                        PaperCells()[static_cast<size_t>(cell)], cell);
}

bool PaperMixQueriesDiffer(const mst::TrajectoryStore& store, uint64_t seed,
                           uint64_t other) {
  for (uint64_t i = 0; i < 12; ++i) {
    const QuerySpec a = PaperMixQuery(store, seed, i);
    const QuerySpec b = PaperMixQuery(store, other, i);
    if (!(mst::FingerprintQuery(a.query) == mst::FingerprintQuery(b.query))) {
      return true;
    }
  }
  return false;
}

// Executor over a static (index, store) pair whose view provider stamps the
// dequeue time of each request while `log` is active.
std::unique_ptr<mst::QueryExecutor> StampedExecutor(
    const mst::TrajectoryIndex* index, const mst::TrajectorySource* store,
    DequeueLog* log, const mst::QueryExecutor::Options& options) {
  return std::make_unique<mst::QueryExecutor>(
      [log, view = mst::MakeStaticIndexView(index, store)] {
        if (log->active.load(std::memory_order_relaxed)) {
          if (Record* r = log->Claim()) r->dequeue_ns = NowNs();
        }
        return view;
      },
      options);
}

// Warm-up requests come from their own index range, so no timed request
// repeats one.
constexpr uint64_t kWarmupBase = uint64_t{1} << 40;

// ---- paper_mix ---------------------------------------------------------------

class PaperMix : public Workload {
 public:
  static constexpr int kObjects = 1000;
  static constexpr int kSamples = 500;
  static constexpr int kWorkers = 3;
  static constexpr int kInFlight = 3;

  double Setup(uint64_t seed) override {
    executor_.reset();
    index_.reset();
    seed_ = seed;
    store_ = MakeGstd(kObjects, kSamples, seed);
    index_ = std::make_unique<mst::RTree3D>();
    const int64_t t0 = NowNs();
    index_->BuildFrom(store_);
    const double build_s = static_cast<double>(NowNs() - t0) / 1e9;
    index_->ConfigurePaperBuffer();
    mst::QueryExecutor::Options options;
    options.num_workers = kWorkers;
    log_ = std::make_unique<DequeueLog>();
    executor_ = StampedExecutor(index_.get(), &store_, log_.get(), options);
    // Warm-up: two fresh queries per cell, so lazy state is built and the
    // caches hold a steady-state mix before timing.
    std::vector<std::future<QueryOutcome>> warm;
    for (int i = 0; i < 24; ++i) {
      const QuerySpec spec = Make(kWarmupBase + static_cast<uint64_t>(i));
      warm.push_back(executor_->Submit({spec.query, spec.period, spec.options}));
    }
    for (auto& f : warm) f.get();
    return build_s;
  }

  Window Run(double seconds, bool trace, Tracer*) override {
    Window w;
    const size_t capacity = static_cast<size_t>(seconds * 2000) + 1024;
    log_->records = &w.records;
    log_->next = 0;
    const IndexCounters c0 = ReadCounters(*index_);
    // RunClosedLoop sizes the records before the first submit.
    log_->active = trace;
    RunClosedLoop(
        kInFlight, seconds, capacity,
        [this](int64_t seq) { return Make(static_cast<uint64_t>(seq)); },
        [this](QueryRequest r) { return executor_->Submit(std::move(r)); },
        [&w](int64_t seq, const QueryOutcome& out) {
          if (PaperMixChecked(seq)) {
            w.answers[static_cast<size_t>(seq)] = out.results;
          }
        },
        &w);
    log_->active = false;
    log_->records = nullptr;
    w.counters = ReadCounters(*index_) - c0;
    return w;
  }

  void Verify(Window* w, RunResult* result) override {
    CheckAgainstScan(store_, w, CheckedIndices(*w), result, "paper_mix");
  }

  double IndexBytesPerSegment() override {
    return static_cast<double>(index_->SizeBytes()) /
           static_cast<double>(index_->EntryCount());
  }

  std::vector<Stack> Stacks() override {
    return {{index_.get(), nullptr, &store_}};
  }

  std::vector<size_t> ReplaySample(const Window& w) override {
    return PaperMixReplaySample(w);
  }

  bool QuerySetDiffers(uint64_t seed, uint64_t other) override {
    return PaperMixQueriesDiffer(store_, seed, other);
  }

  void LayerMetrics(const Window&, Report*) override {}

 protected:
  QuerySpec Make(uint64_t index) const {
    return PaperMixQuery(store_, seed_, index);
  }

  uint64_t seed_ = 0;
  mst::TrajectoryStore store_;
  std::unique_ptr<mst::RTree3D> index_;
  std::unique_ptr<DequeueLog> log_;
  std::unique_ptr<mst::QueryExecutor> executor_;
};

// ---- hot_repeat ----------------------------------------------------------------

class HotRepeat : public Workload {
 public:
  static constexpr int kObjects = 500;
  static constexpr int kSamples = 200;
  static constexpr int kWorkers = 3;
  static constexpr int kPool = 64;
  static constexpr int kBatch = 16;
  /// The data, the pool and its Zipf ranking are fixed; the run seed draws
  /// the request sequence. With a seeded pool the hottest query alone
  /// (a fifth of all requests) moved qps by 2x from seed to seed.
  static constexpr uint64_t kPoolSeed = 0x407e9ea7;

  double Setup(uint64_t seed) override {
    executor_.reset();
    index_.reset();
    seed_ = seed;
    store_ = MakeGstd(kObjects, kSamples, kPoolSeed);
    index_ = std::make_unique<mst::RTree3D>();
    const int64_t t0 = NowNs();
    index_->BuildFrom(store_);
    const double build_s = static_cast<double>(NowNs() - t0) / 1e9;
    index_->ConfigurePaperBuffer();
    pool_ = MakePool();
    // Zipf(1) over the pool: rank r has weight 1/r; ranks map to pool
    // entries through a fixed shuffle.
    std::vector<int> order(kPool);
    for (int i = 0; i < kPool; ++i) order[static_cast<size_t>(i)] = i;
    mst::Rng rng = mst::Rng(kPoolSeed).Fork(0x21bf);
    for (int i = kPool - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.UniformIndex(static_cast<uint64_t>(i) + 1)]);
    }
    rank_to_pool_ = order;
    cdf_.clear();
    double total = 0.0;
    for (int r = 1; r <= kPool; ++r) total += 1.0 / r;
    double acc = 0.0;
    for (int r = 1; r <= kPool; ++r) {
      acc += 1.0 / r / total;
      cdf_.push_back(acc);
    }
    mst::QueryExecutor::Options options;
    options.num_workers = kWorkers;
    log_ = std::make_unique<DequeueLog>();
    executor_ = StampedExecutor(index_.get(), &store_, log_.get(), options);
    // Warm-up: the whole pool once, in batches of kBatch.
    warm_answers_.clear();
    for (int b = 0; b < kPool; b += kBatch) {
      std::vector<QueryRequest> batch;
      for (int i = b; i < b + kBatch; ++i) {
        const QuerySpec& s = pool_[static_cast<size_t>(i)];
        batch.emplace_back(s.query, s.period, s.options);
      }
      warm_answers_.push_back(executor_->RunBatch(batch));
    }
    return build_s;
  }

  Window Run(double seconds, bool trace, Tracer* tracer) override {
    Window w;
    const size_t capacity = static_cast<size_t>(seconds * 4000) + 1024;
    w.records.assign(capacity, Record{});
    log_->records = &w.records;
    log_->next = 0;
    log_->active = trace;
    mst::Rng rng = RequestRng(seed_);
    const IndexCounters c0 = ReadCounters(*index_);
    w.start_ns = NowNs();
    w.end_ns = w.start_ns + static_cast<int64_t>(seconds * 1e9);
    std::thread sampler([&w] { SampleCpu(&w); });
    size_t n = 0;
    int64_t duplicates = 0;
    std::vector<std::vector<QueryOutcome>> outcomes;
    std::vector<std::vector<int>> picks;
    while (NowNs() < w.end_ns && n + kBatch <= capacity) {
      std::vector<int> pick;
      std::vector<QueryRequest> batch;
      std::set<int> seen;
      for (int i = 0; i < kBatch; ++i) {
        const int p = Draw(&rng);
        duplicates += seen.insert(p).second ? 0 : 1;
        pick.push_back(p);
        const QuerySpec& s = pool_[static_cast<size_t>(p)];
        batch.emplace_back(s.query, s.period, s.options);
      }
      const int64_t t0 = NowNs();
      std::vector<QueryOutcome> out = executor_->RunBatch(batch);
      const int64_t t1 = NowNs();
      w.batch_ms.push_back(static_cast<double>(t1 - t0) / kNsPerMs);
      for (int i = 0; i < kBatch; ++i) {
        Record& rec = w.records[n + static_cast<size_t>(i)];
        rec.submit_ns = t0;
        rec.answer_ns = t1;
        rec.pool = pick[static_cast<size_t>(i)];
        rec.failed = out[static_cast<size_t>(i)].cancelled;
        rec.stats = out[static_cast<size_t>(i)].stats;
        rec.results =
            static_cast<int64_t>(out[static_cast<size_t>(i)].results.size());
      }
      if (tracer != nullptr) {
        tracer->Add({"exec.batch", t0, t1, 0, 0, 0, kBatch});
      }
      n += kBatch;
      outcomes.push_back(std::move(out));
      picks.push_back(std::move(pick));
    }
    sampler.join();
    log_->active = false;
    log_->records = nullptr;
    w.records.resize(n);
    w.counters = ReadCounters(*index_) - c0;
    w.duplicate_share =
        n == 0 ? 0.0 : static_cast<double>(duplicates) / static_cast<double>(n);
    // Every answer is checked: keep each with its pool entry's spec.
    for (size_t b = 0; b < outcomes.size(); ++b) {
      for (int i = 0; i < kBatch; ++i) {
        w.specs.push_back(pool_[static_cast<size_t>(picks[b][static_cast<size_t>(i)])]);
        w.answers.push_back(std::move(outcomes[b][static_cast<size_t>(i)].results));
      }
    }
    return w;
  }

  void Verify(Window* w, RunResult* result) override {
    // One LinearScan per pool entry; every timed and warm-up answer is
    // compared with its entry's oracle answer.
    std::vector<std::vector<MstResult>> oracle(kPool);
    ParallelFor(kPool, 4, [&](int p) {
      oracle[static_cast<size_t>(p)] =
          OracleAnswer(store_, pool_[static_cast<size_t>(p)]);
    });
    int64_t bad = 0;
    for (size_t i = 0; i < w->answers.size(); ++i) {
      if (w->records[i].failed) continue;
      if (!SameAnswer(w->answers[i],
                      oracle[static_cast<size_t>(w->records[i].pool)])) {
        ++bad;
      }
    }
    for (size_t b = 0; b < warm_answers_.size(); ++b) {
      for (int i = 0; i < kBatch; ++i) {
        const size_t p = b * kBatch + static_cast<size_t>(i);
        if (!SameAnswer(warm_answers_[b][static_cast<size_t>(i)].results,
                        oracle[p])) {
          ++bad;
        }
      }
    }
    if (bad > 0) {
      result->failed += bad;
      result->failures.push_back("hot_repeat: " + std::to_string(bad) +
                                 " answers disagree with LinearScan");
    }
    result->report.Set("oracle.checked",
                       static_cast<double>(w->answers.size()), "count");
  }

  double IndexBytesPerSegment() override {
    return static_cast<double>(index_->SizeBytes()) /
           static_cast<double>(index_->EntryCount());
  }

  std::vector<Stack> Stacks() override {
    return {{index_.get(), nullptr, &store_}};
  }

  std::vector<size_t> ReplaySample(const Window& w) override {
    // The first request of each distinct pool entry the window served.
    std::vector<size_t> out;
    std::set<int> seen;
    for (size_t i = 0; i < w.records.size(); ++i) {
      if (seen.insert(w.records[i].pool).second) out.push_back(i);
    }
    return out;
  }

  // The pool is fixed, so the seed's query set is its request sequence.
  bool QuerySetDiffers(uint64_t seed, uint64_t other) override {
    mst::Rng a = RequestRng(seed);
    mst::Rng b = RequestRng(other);
    for (int i = 0; i < 4 * kBatch; ++i) {
      if (Draw(&a) != Draw(&b)) return true;
    }
    return false;
  }

  void LayerMetrics(const Window& w, Report* report) override {
    report->Set("exec.batch_ms_p50", Median(w.batch_ms), "ms");
    report->Set("exec.duplicate_share", w.duplicate_share, "fraction");
  }

 private:
  // 64 distinct queries: k ∈ {10, 50} × length ∈ {0.05, 0.25} × policy
  // (half exact), 8 slices each.
  std::vector<QuerySpec> MakePool() const {
    std::vector<QuerySpec> pool;
    const std::vector<Cell>& cells = PaperCells();
    for (int i = 0; i < kPool; ++i) {
      // Cells 4..11 of the paper rotation are the k ∈ {10, 50} ones.
      const int cell = 4 + i % 8;
      pool.push_back(MakeSliceQuery(store_, kPoolSeed,
                                    static_cast<uint64_t>(i),
                                    cells[static_cast<size_t>(cell)], cell));
    }
    return pool;
  }

  static mst::Rng RequestRng(uint64_t seed) {
    return mst::Rng(seed).Fork(0xba7c4);
  }

  // One Zipf(1) draw: a pool index.
  int Draw(mst::Rng* rng) const {
    const double u = rng->NextDouble();
    const auto rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_pool_[std::min<size_t>(rank, kPool - 1)];
  }

  uint64_t seed_ = 0;
  mst::TrajectoryStore store_;
  std::unique_ptr<mst::RTree3D> index_;
  std::vector<QuerySpec> pool_;
  std::vector<int> rank_to_pool_;
  std::vector<double> cdf_;
  std::vector<std::vector<QueryOutcome>> warm_answers_;
  std::unique_ptr<DequeueLog> log_;
  std::unique_ptr<mst::QueryExecutor> executor_;
};

// ---- sharded_mix -------------------------------------------------------------

class ShardedMix : public Workload {
 public:
  static constexpr int kObjects = 1000;
  static constexpr int kSamples = 500;
  static constexpr int kShards = 2;
  static constexpr int kInFlight = 2;

  double Setup(uint64_t seed) override {
    frontend_.reset();
    index_.reset();
    seed_ = seed;
    store_ = MakeGstd(kObjects, kSamples, seed);
    mst::ShardedIndex::Options options;
    options.num_shards = kShards;
    index_ = std::make_unique<mst::ShardedIndex>(options);
    const int64_t t0 = NowNs();
    index_->BuildFrom(store_);
    const double build_s = static_cast<double>(NowNs() - t0) / 1e9;
    index_->ConfigurePaperBuffer();
    logs_.clear();
    std::vector<mst::IndexViewProvider> providers;
    for (int s = 0; s < kShards; ++s) {
      logs_.push_back(std::make_unique<DequeueLog>());
      const mst::ShardedIndex::Shard& shard = index_->shard(s);
      providers.push_back(
          [log = logs_.back().get(), s,
           view = mst::MakeStaticIndexView(shard.index.get(), &shard.store)] {
            if (log->active.load(std::memory_order_relaxed)) {
              if (Record* r = log->Claim()) r->leg_dequeue_ns[s] = NowNs();
            }
            return view;
          });
    }
    frontend_ = std::make_unique<mst::ShardFrontEnd>(
        std::move(providers), mst::ShardFrontEnd::Options());
    std::vector<std::future<QueryOutcome>> warm;
    for (int i = 0; i < 24; ++i) {
      const QuerySpec spec = Make(kWarmupBase + static_cast<uint64_t>(i));
      warm.push_back(frontend_->Submit({spec.query, spec.period, spec.options}));
    }
    for (auto& f : warm) f.get();
    return build_s;
  }

  Window Run(double seconds, bool trace, Tracer*) override {
    Window w;
    const size_t capacity = static_cast<size_t>(seconds * 2000) + 1024;
    for (auto& log : logs_) {
      log->records = &w.records;
      log->next = 0;
      log->active = trace;
    }
    IndexCounters c0;
    for (int s = 0; s < kShards; ++s) c0 += ReadCounters(*index_->shard(s).index);
    RunClosedLoop(
        kInFlight, seconds, capacity,
        [this](int64_t seq) { return Make(static_cast<uint64_t>(seq)); },
        [this](QueryRequest r) { return frontend_->Submit(std::move(r)); },
        [&w](int64_t seq, const QueryOutcome& out) {
          if (PaperMixChecked(seq)) {
            w.answers[static_cast<size_t>(seq)] = out.results;
          }
        },
        &w);
    for (auto& log : logs_) {
      log->active = false;
      log->records = nullptr;
    }
    IndexCounters c1;
    for (int s = 0; s < kShards; ++s) c1 += ReadCounters(*index_->shard(s).index);
    w.counters = c1 - c0;
    // The first leg dequeue is the request's dequeue.
    for (Record& r : w.records) {
      r.dequeue_ns = std::min(r.leg_dequeue_ns[0], r.leg_dequeue_ns[1]);
    }
    return w;
  }

  void Verify(Window* w, RunResult* result) override {
    CheckAgainstScan(store_, w, CheckedIndices(*w), result, "sharded_mix");
  }

  double IndexBytesPerSegment() override {
    return static_cast<double>(index_->SizeBytes()) /
           static_cast<double>(index_->EntryCount());
  }

  std::vector<Stack> Stacks() override {
    std::vector<Stack> out;
    for (int s = 0; s < kShards; ++s) {
      const mst::ShardedIndex::Shard& shard = index_->shard(s);
      out.push_back({shard.index.get(), nullptr, &shard.store});
    }
    return out;
  }

  std::vector<size_t> ReplaySample(const Window& w) override {
    return PaperMixReplaySample(w);
  }

  bool QuerySetDiffers(uint64_t seed, uint64_t other) override {
    return PaperMixQueriesDiffer(store_, seed, other);
  }

  void LayerMetrics(const Window& w, Report* report) override {
    std::vector<double> wait;
    std::vector<double> skew;
    double reads = 0.0;
    for (const Record& r : w.records) {
      if (r.failed || r.leg_dequeue_ns[0] == 0 || r.leg_dequeue_ns[1] == 0) {
        continue;
      }
      for (const int64_t d : r.leg_dequeue_ns) {
        wait.push_back(static_cast<double>(d - r.submit_ns) / kNsPerMs);
      }
      skew.push_back(static_cast<double>(std::abs(r.leg_dequeue_ns[1] -
                                                  r.leg_dequeue_ns[0])) /
                     kNsPerMs);
      reads += static_cast<double>(r.stats.nodes_accessed);
    }
    report->Set("shard.node_reads_per_query",
                skew.empty() ? 0.0 : reads / static_cast<double>(skew.size()),
                "count");
    report->Set("shard.leg_wait_ms_p50", Median(wait), "ms");
    report->Set("shard.leg_skew_ms_p99", Percentile(skew, 99.0), "ms");
  }

 private:
  QuerySpec Make(uint64_t index) const {
    return PaperMixQuery(store_, seed_, index);
  }

  uint64_t seed_ = 0;
  mst::TrajectoryStore store_;
  std::unique_ptr<mst::ShardedIndex> index_;
  std::vector<std::unique_ptr<DequeueLog>> logs_;
  std::unique_ptr<mst::ShardFrontEnd> frontend_;
};

// ---- ingest_mix ----------------------------------------------------------------

class IngestMix : public Workload {
 public:
  static constexpr int kObjects = 500;
  static constexpr int kSamples = 400;
  static constexpr size_t kBatchRecords = 32;
  /// Open-loop append rate, well below the ~2000 batches/s the engine
  /// sustains on this stream with the query client and merger running
  /// (4-vCPU x86-64 VM). At 600 batches/s the merger kept a core busy and
  /// the workload's latency figures spread past their bound; see README.md.
  static constexpr double kBatchesPerSecond = 300.0;
  static constexpr double kQueryLength = 0.05;
  static constexpr int kK = 10;
  static constexpr int kRecoveryQueries = 12;

  explicit IngestMix(double seconds) : seconds_(seconds) {}

  double Setup(uint64_t seed) override {
    executor_.reset();
    engine_.reset();
    storage_.reset();
    seed_ = seed;
    setup_failures_ = 0;
    // The stream must outlast the window at the fixed rate: the second
    // half holds rate × seconds batches (584 samples/object at 15 s).
    const double needed = kBatchesPerSecond * seconds_ * kBatchRecords /
                          static_cast<double>(kObjects);
    samples_ = std::max(kSamples, 2 * static_cast<int>(std::ceil(needed)) + 8);
    full_ = MakeGstd(kObjects, samples_, seed);
    stream_.clear();
    for (const mst::Trajectory& t : full_.trajectories()) {
      for (const mst::TPoint& p : t.samples()) {
        stream_.push_back({t.id(), p.t, p.p.x, p.p.y});
      }
    }
    std::sort(stream_.begin(), stream_.end(),
              [](const mst::WalRecord& a, const mst::WalRecord& b) {
                return a.t != b.t ? a.t < b.t : a.traj_id < b.traj_id;
              });
    const size_t half = stream_.size() / 2 / kBatchRecords * kBatchRecords;
    storage_ = std::make_unique<mst::MemWalStorageSet>();
    engine_ = std::make_unique<mst::IngestEngine>(storage_.get(),
                                                  mst::IngestEngine::Options());
    const int64_t t0 = NowNs();
    for (size_t pos = 0; pos < half; pos += kBatchRecords) {
      const std::vector<mst::WalRecord> batch(
          stream_.begin() + static_cast<std::ptrdiff_t>(pos),
          stream_.begin() + static_cast<std::ptrdiff_t>(pos + kBatchRecords));
      if (!engine_->Append(batch)) setup_failures_++;
    }
    engine_->Merge();
    const double build_s = static_cast<double>(NowNs() - t0) / 1e9;
    pos_ = half;
    batches_total_ = static_cast<int64_t>(half / kBatchRecords);
    records_total_ = static_cast<int64_t>(half);
    // Windows ending at or before `settled_` lie wholly in merged data.
    settled_ = stream_[half - 1].t;
    frontier_.store(settled_);
    spacing_ = 1.0 / static_cast<double>(samples_);
    log_ = std::make_unique<DequeueLog>();
    mst::QueryExecutor::Options options;
    options.num_workers = 1;
    executor_ = std::make_unique<mst::QueryExecutor>(
        // The snapshot of every checked request is held for the oracle in
        // both runs; only the traced run takes timestamps.
        [this, inner = engine_->ViewProvider()] {
          if (log_->records == nullptr) return inner();
          Record* r = log_->Claim();
          const bool trace = log_->active.load(std::memory_order_relaxed);
          const int64_t t0 = trace ? NowNs() : 0;
          mst::IndexView view = inner();
          if (r == nullptr) return view;
          if (trace) {
            r->dequeue_ns = t0;
            r->view_ns = NowNs() - t0;
            r->delta_entries = static_cast<int64_t>(engine_->delta_entries());
            Track(view);
          }
          const size_t n = static_cast<size_t>(r - log_->records->data());
          if (Checked(static_cast<int64_t>(n))) held_[n] = view.source;
          return view;
        },
        options);
    // Warm-up: a few settled queries.
    for (int i = 0; i < 8; ++i) {
      const QuerySpec spec = Make(kWarmupBase + static_cast<uint64_t>(i), false);
      executor_->Submit({spec.query, spec.period, spec.options}).get();
    }
    return build_s;
  }

  Window Run(double seconds, bool trace, Tracer* tracer) override {
    Window w;
    const size_t capacity = static_cast<size_t>(seconds * 4000) + 1024;
    held_.assign(capacity, nullptr);
    checked_stores_.assign(capacity, mst::TrajectoryStore());
    log_->records = &w.records;
    log_->next = 0;
    {
      std::lock_guard<std::mutex> lock(track_mu_);
      tracked_ = {};
    }
    const uint64_t publishes0 = engine_->publish_count();
    std::atomic<bool> stop{false};
    // The writer's schedule is anchored on the window, so fix it first.
    w.start_ns = NowNs();
    w.end_ns = w.start_ns + static_cast<int64_t>(seconds * 1e9);
    std::mutex spans_mu;
    // Open-loop writer: batch i is due at start + i / rate; latency counts
    // from the due time, so a stall also charges the batches behind it.
    std::thread writer([&] {
      const int64_t period_ns = static_cast<int64_t>(1e9 / kBatchesPerSecond);
      for (int64_t i = 0;; ++i) {
        const int64_t due = w.start_ns + i * period_ns;
        if (due >= w.end_ns || pos_ + kBatchRecords > stream_.size()) break;
        SleepUntilNs(due);
        const int64_t begin = NowNs();
        w.writer_late_ms_max = std::max(
            w.writer_late_ms_max, static_cast<double>(begin - due) / kNsPerMs);
        const std::vector<mst::WalRecord> batch(
            stream_.begin() + static_cast<std::ptrdiff_t>(pos_),
            stream_.begin() + static_cast<std::ptrdiff_t>(pos_ + kBatchRecords));
        const bool ok = engine_->Append(batch);
        const int64_t end = NowNs();
        pos_ += kBatchRecords;
        ++w.appends;
        w.records_appended += kBatchRecords;
        w.appends_failed += ok ? 0 : 1;
        w.append_ms.push_back(static_cast<double>(end - due) / kNsPerMs);
        frontier_.store(batch.back().t);
        if (tracer != nullptr) {
          tracer->Add({"ingest.append", begin, end, 0, 0, 0, 1});
        }
      }
    });
    // Maintenance: merge whenever the delta passes the engine's threshold.
    const size_t threshold = mst::IngestEngine::Options().merge_threshold_entries;
    std::thread merger([&] {
      while (!stop.load()) {
        if (engine_->delta_entries() > threshold) {
          const int64_t t0 = NowNs();
          engine_->Merge();
          const int64_t t1 = NowNs();
          std::lock_guard<std::mutex> lock(spans_mu);
          w.merge_s.push_back(static_cast<double>(t1 - t0) / 1e9);
          if (tracer != nullptr) {
            tracer->Add({"ingest.merge", t0, t1, 0, 0, 0, 1});
          }
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
    log_->active = trace;
    RunClosedLoop(
        1, seconds, capacity,
        [this](int64_t seq) {
          return Make(static_cast<uint64_t>(seq), seq % 2 == 1);
        },
        [this](QueryRequest r) { return executor_->Submit(std::move(r)); },
        [&w, this](int64_t seq, const QueryOutcome& out) {
          if (!Checked(seq)) return;
          const size_t n = static_cast<size_t>(seq);
          w.answers[n] = out.results;
          // Keep only what the oracle needs of the snapshot the worker
          // searched: every trajectory covering the period, sliced to it.
          if (held_[n] != nullptr) {
            mst::TrajectoryStore& store = checked_stores_[n];
            for (const mst::Trajectory& t : full_.trajectories()) {
              const mst::Trajectory* live = held_[n]->Find(t.id());
              if (live != nullptr && live->Covers(w.specs[n].period)) {
                store.Add(*live->Slice(w.specs[n].period));
              }
            }
            held_[n].reset();
          }
        },
        &w);
    log_->active = false;
    stop = true;
    writer.join();
    merger.join();
    log_->records = nullptr;
    w.publishes = static_cast<int64_t>(engine_->publish_count() - publishes0);
    {
      std::lock_guard<std::mutex> lock(track_mu_);
      Harvest();
      w.counters = tracked_.total;
    }
    batches_total_ += w.appends;
    records_total_ += w.records_appended;
    return w;
  }

  void Verify(Window* w, RunResult* result) override {
    // Live answers against the snapshot each was computed on.
    std::vector<size_t> checked;
    for (size_t i = 0; i < w->records.size(); ++i) {
      if (Checked(static_cast<int64_t>(i)) && !w->records[i].failed &&
          w->answers[i].size() + checked_stores_[i].size() > 0) {
        checked.push_back(i);
      }
    }
    std::vector<char> ok(checked.size(), 1);
    ParallelFor(static_cast<int>(checked.size()), 4, [&](int i) {
      const size_t r = checked[static_cast<size_t>(i)];
      ok[static_cast<size_t>(i)] = SameAnswer(
          w->answers[r], OracleAnswer(checked_stores_[r], w->specs[r]));
    });
    int64_t bad = 0;
    for (const char o : ok) bad += o ? 0 : 1;
    if (bad > 0) {
      result->failed += bad;
      result->failures.push_back("ingest_mix: " + std::to_string(bad) +
                                 " live answers disagree with LinearScan over "
                                 "their snapshot");
    }
    checked_stores_.clear();
    if (w->appends_failed > 0 || setup_failures_ > 0) {
      result->failed += w->appends_failed + setup_failures_;
      result->failures.push_back("ingest_mix: Append returned false");
    }

    // Quiesced: a fixed query set on the live engine, checked against
    // LinearScan over the materialized table ...
    executor_.reset();
    std::vector<QuerySpec> fixed;
    for (int i = 0; i < kRecoveryQueries; ++i) {
      fixed.push_back(Make(kWarmupBase + 1000 + static_cast<uint64_t>(i),
                           i % 2 == 1));
    }
    std::vector<std::vector<MstResult>> live;
    for (const QuerySpec& s : fixed) {
      live.push_back(engine_->Search(s.query, s.period, s.options));
    }
    const mst::TrajectoryStore table = engine_->MaterializeStore();
    int64_t fixed_bad = 0;
    for (size_t i = 0; i < fixed.size(); ++i) {
      fixed_bad += SameAnswer(live[i], OracleAnswer(table, fixed[i])) ? 0 : 1;
    }
    index_bytes_ = ComputeIndexBytes();
    const int64_t wal_syncs = static_cast<int64_t>(engine_->wal().sync_count());
    // ... then the engine is dropped and reopened over its WAL; the
    // recovered engine must answer the same set identically.
    engine_.reset();
    const int64_t t0 = NowNs();
    engine_ = std::make_unique<mst::IngestEngine>(storage_.get(),
                                                  mst::IngestEngine::Options());
    recovery_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    for (size_t i = 0; i < fixed.size(); ++i) {
      const std::vector<MstResult> again =
          engine_->Search(fixed[i].query, fixed[i].period, fixed[i].options);
      bool same = again.size() == live[i].size();
      for (size_t j = 0; same && j < again.size(); ++j) {
        same = again[j].id == live[i][j].id &&
               again[j].dissim == live[i][j].dissim;
      }
      fixed_bad += same ? 0 : 1;
    }
    if (fixed_bad > 0) {
      result->failed += fixed_bad;
      result->failures.push_back("ingest_mix: " + std::to_string(fixed_bad) +
                                 " fixed-set answers wrong or changed by "
                                 "recovery");
    }
    result->attempted += w->appends + 2 * kRecoveryQueries;
    result->report.Set("oracle.checked",
                       static_cast<double>(checked.size() + 2 * fixed.size()),
                       "count");
    result->report.Set("append_p50_ms", Median(w->append_ms), "ms");
    result->report.Set("append_p99_ms", Percentile(w->append_ms, 99.0), "ms");
    result->report.Set("recovery_s", recovery_s_, "s");
    size_t wal_bytes = 0;
    for (size_t s = 0; s < storage_->SegmentCount(); ++s) {
      wal_bytes += storage_->OpenSegment(s)->Size();
    }
    result->report.Set(
        "ingest.wal_bytes_per_record",
        static_cast<double>(wal_bytes) / static_cast<double>(records_total_),
        "B");
    result->report.Set("ingest.wal_syncs_per_batch",
                       static_cast<double>(wal_syncs) /
                           static_cast<double>(batches_total_),
                       "count");
  }

  double IndexBytesPerSegment() override { return index_bytes_; }

  std::vector<Stack> Stacks() override {
    final_view_ = engine_->View();
    return {{final_view_.main.get(), final_view_.delta.get(),
             final_view_.source.get()}};
  }

  std::vector<size_t> ReplaySample(const Window& w) override {
    std::vector<size_t> out;
    for (size_t i = 0; i < w.records.size() && out.size() < 64; ++i) {
      if (Checked(static_cast<int64_t>(i))) out.push_back(i);
    }
    return out;
  }

  bool QuerySetDiffers(uint64_t seed, uint64_t other) override {
    for (uint64_t i = 0; i < 8; i += 2) {
      const QuerySpec a = MakeSettled(seed, i);
      const QuerySpec b = MakeSettled(other, i);
      if (!(mst::FingerprintQuery(a.query) == mst::FingerprintQuery(b.query))) {
        return true;
      }
    }
    return false;
  }

  void LayerMetrics(const Window& w, Report* report) override {
    std::vector<double> view_ms;
    std::vector<double> delta;
    for (const Record& r : w.records) {
      if (r.dequeue_ns == 0) continue;
      view_ms.push_back(static_cast<double>(r.view_ns) / kNsPerMs);
      delta.push_back(static_cast<double>(r.delta_entries));
    }
    const double queries = static_cast<double>(std::max<size_t>(w.records.size(), 1));
    report->Set("ingest.view_ms_p50", Median(view_ms), "ms");
    report->Set("ingest.view_ms_p99", Percentile(view_ms, 99.0), "ms");
    report->Set("ingest.publishes_per_query",
                static_cast<double>(w.publishes) / queries, "count");
    report->Set("ingest.delta_entries_at_query", Mean(delta), "count");
    report->Set("ingest.merge_s", Median(w.merge_s), "s");
    report->Set("ingest.merges", static_cast<double>(w.merge_s.size()),
                "count");
    report->Set("ingest.writer_late_ms_max", w.writer_late_ms_max, "ms");
  }

 private:
  // Two of every 32 requests, one settled and one at the frontier, are
  // checked against their snapshot.
  static bool Checked(int64_t seq) { return seq % 32 == 0 || seq % 32 == 1; }

  QuerySpec MakeSettled(uint64_t seed, uint64_t index) const {
    mst::Rng rng = mst::Rng(seed ^ 0x1a9e57ULL).Fork(index);
    const mst::Trajectory& base =
        full_.trajectories()[rng.UniformIndex(full_.size())];
    const double end_max = settled_ - spacing_;
    const double begin = rng.Uniform(0.0, end_max - kQueryLength);
    return Slice(base, begin, begin + kQueryLength);
  }

  // Settled windows lie in merged data; frontier windows end one and a half
  // sample spacings behind the newest appended instant, so every object
  // already covers them while their tail is still in the delta.
  QuerySpec Make(uint64_t index, bool at_frontier) const {
    if (!at_frontier) return MakeSettled(seed_, index);
    mst::Rng rng = mst::Rng(seed_ ^ 0xf20e71e5ULL).Fork(index);
    const mst::Trajectory& base =
        full_.trajectories()[rng.UniformIndex(full_.size())];
    const double end = frontier_.load() - 1.5 * spacing_;
    return Slice(base, end - kQueryLength, end);
  }

  QuerySpec Slice(const mst::Trajectory& base, double begin,
                  double end) const {
    mst::MstOptions options;
    options.k = kK;
    const mst::Trajectory slice = *base.Slice({begin, end});
    mst::Trajectory query(kQueryId, slice.samples());
    const mst::TimeInterval period = query.Lifespan();
    return {std::move(query), period, options, 2};
  }

  // Index-layer counters across the main and delta trees the worker saw:
  // each tree's counters are read when it is first seen and when it is
  // replaced (merges swap the main tree, publishes rebuild the delta).
  struct Tracked {
    std::shared_ptr<const mst::TrajectoryIndex> main, delta;
    IndexCounters main0, delta0, total;
  };

  void Track(const mst::IndexView& view) {
    std::lock_guard<std::mutex> lock(track_mu_);
    if (view.main != tracked_.main) {
      if (tracked_.main) tracked_.total += ReadCounters(*tracked_.main) - tracked_.main0;
      tracked_.main = view.main;
      tracked_.main0 = ReadCounters(*view.main);
    }
    if (view.delta != tracked_.delta) {
      if (tracked_.delta) {
        tracked_.total += ReadCounters(*tracked_.delta) - tracked_.delta0;
      }
      tracked_.delta = view.delta;
      if (view.delta) tracked_.delta0 = ReadCounters(*view.delta);
    }
  }

  void Harvest() {
    if (tracked_.main) tracked_.total += ReadCounters(*tracked_.main) - tracked_.main0;
    if (tracked_.delta) {
      tracked_.total += ReadCounters(*tracked_.delta) - tracked_.delta0;
    }
    tracked_.main.reset();
    tracked_.delta.reset();
  }

  double ComputeIndexBytes() {
    const mst::IndexView view = engine_->View();
    int64_t bytes = view.main->SizeBytes();
    int64_t entries = view.main->EntryCount();
    if (view.delta != nullptr) {
      bytes += view.delta->SizeBytes();
      entries += view.delta->EntryCount();
    }
    return static_cast<double>(bytes) / static_cast<double>(entries);
  }

  const double seconds_;
  uint64_t seed_ = 0;
  int samples_ = kSamples;
  mst::TrajectoryStore full_;
  std::vector<mst::WalRecord> stream_;
  size_t pos_ = 0;
  int64_t batches_total_ = 0;
  int64_t records_total_ = 0;
  int64_t setup_failures_ = 0;
  double settled_ = 0.0;
  double spacing_ = 0.0;
  double index_bytes_ = 0.0;
  double recovery_s_ = 0.0;
  std::atomic<double> frontier_{0.0};
  std::unique_ptr<mst::MemWalStorageSet> storage_;
  std::unique_ptr<mst::IngestEngine> engine_;
  std::unique_ptr<DequeueLog> log_;
  std::unique_ptr<mst::QueryExecutor> executor_;
  std::vector<std::shared_ptr<const mst::TrajectorySource>> held_;
  std::vector<mst::TrajectoryStore> checked_stores_;
  std::mutex track_mu_;
  Tracked tracked_;
  mst::IndexView final_view_;
};


// ---- Metrics from a window -----------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "paper_mix") return std::make_unique<PaperMix>();
  if (config.workload == "hot_repeat") return std::make_unique<HotRepeat>();
  if (config.workload == "ingest_mix") {
    return std::make_unique<IngestMix>(config.seconds);
  }
  if (config.workload == "sharded_mix") return std::make_unique<ShardedMix>();
  std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
  std::abort();
}


std::vector<double> LatenciesMs(const Window& w) {
  std::vector<double> out;
  for (const Record& r : w.records) {
    if (!r.failed) {
      out.push_back(static_cast<double>(r.answer_ns - r.submit_ns) / kNsPerMs);
    }
  }
  return out;
}

// Completed queries per second and CPU ms per completed query in each
// sub-window of `w`.
void SubWindowRates(const Window& w, std::vector<double>* qps,
                    std::vector<double>* cpu_ms) {
  std::vector<int64_t> answers;
  for (const Record& r : w.records) {
    if (!r.failed) answers.push_back(r.answer_ns);
  }
  std::sort(answers.begin(), answers.end());
  for (size_t i = 0; i + 1 < w.mark_ns.size(); ++i) {
    const auto n = static_cast<double>(
        std::lower_bound(answers.begin(), answers.end(), w.mark_ns[i + 1]) -
        std::lower_bound(answers.begin(), answers.end(), w.mark_ns[i]));
    const double seconds =
        static_cast<double>(w.mark_ns[i + 1] - w.mark_ns[i]) / 1e9;
    if (n <= 0 || seconds < kSubWindowSeconds / 2) continue;
    qps->push_back(n / seconds);
    cpu_ms->push_back((w.mark_cpu_s[i + 1] - w.mark_cpu_s[i]) * 1e3 / n);
  }
}

// Median over sub-windows, so a burst of outside load in one of them does
// not move the run's figure.
double Qps(const Window& w) {
  std::vector<double> qps;
  std::vector<double> cpu_ms;
  SubWindowRates(w, &qps, &cpu_ms);
  return Median(qps);
}

void EndToEndMetrics(const Window& w, Report* report) {
  const std::vector<double> latency = LatenciesMs(w);
  std::vector<double> qps;
  std::vector<double> cpu_ms;
  SubWindowRates(w, &qps, &cpu_ms);
  report->Set("qps", Median(qps), "1/s");
  report->Set("query_p50_ms", Percentile(latency, 50.0), "ms");
  report->Set("query_p99_ms", Percentile(latency, 99.0), "ms");
  report->Set("cpu_ms_per_query", Median(cpu_ms), "ms");
  report->Set("queries", static_cast<double>(latency.size()), "count");
}

// Per-query counters of the window as the engine reported them (MstStats),
// plus the index-layer counter deltas and the executor stamps.
void QueryLayerMetrics(const Window& w, Report* report) {
  double n = 0, nodes = 0, pruning = 0, leaf = 0, pruned = 0, pushes = 0;
  double created = 0, rejected = 0, h2 = 0, refine = 0, results = 0;
  double nc_hits = 0, nc_misses = 0, rc_hits = 0, rc_misses = 0;
  std::vector<double> wait, service;
  for (const Record& r : w.records) {
    if (r.failed) continue;
    const MstStats& s = r.stats;
    n += 1;
    nodes += static_cast<double>(s.nodes_accessed);
    pruning += s.PruningPower();
    leaf += static_cast<double>(s.leaf_entries_seen);
    pruned += static_cast<double>(s.leaf_entries_pruned);
    pushes += static_cast<double>(s.heap_pushes);
    created += static_cast<double>(s.candidates_created);
    rejected += static_cast<double>(s.candidates_rejected);
    h2 += s.terminated_by_heuristic2 ? 1 : 0;
    refine += static_cast<double>(s.exact_recomputations);
    results += static_cast<double>(r.results);
    nc_hits += static_cast<double>(s.node_cache_hits);
    nc_misses += static_cast<double>(s.node_cache_misses);
    rc_hits += static_cast<double>(s.result_cache_hits);
    rc_misses += static_cast<double>(s.result_cache_misses);
    if (r.dequeue_ns != 0) {
      wait.push_back(static_cast<double>(r.dequeue_ns - r.submit_ns) /
                     kNsPerMs);
      service.push_back(static_cast<double>(r.answer_ns - r.dequeue_ns) /
                        kNsPerMs);
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->Set("index.node_reads_per_query", ratio(nodes, n), "count");
  report->Set("index.pruning_power", ratio(pruning, n), "fraction");
  report->Set("index.physical_reads_per_query",
              ratio(static_cast<double>(w.counters.physical_reads), n),
              "count");
  report->Set("index.buffer_miss_rate",
              ratio(static_cast<double>(w.counters.misses),
                    static_cast<double>(w.counters.logical_reads)),
              "fraction");
  report->Set("index.node_cache_hit_rate", ratio(nc_hits, nc_hits + nc_misses),
              "fraction");
  report->Set("core.leaf_entries_per_query", ratio(leaf, n), "count");
  report->Set("core.leaf_prune_rate", ratio(pruned, leaf), "fraction");
  report->Set("core.heap_pushes_per_query", ratio(pushes, n), "count");
  report->Set("core.candidates_per_query", ratio(created, n), "count");
  report->Set("core.h1_reject_rate", ratio(rejected, created), "fraction");
  report->Set("core.h2_termination_rate", ratio(h2, n), "fraction");
  report->Set("core.exact_refinements_per_query", ratio(refine, n), "count");
  report->Set("core.refine_yield", ratio(results, refine), "fraction");
  report->Set("core.result_cache_hit_rate", ratio(rc_hits, rc_hits + rc_misses),
              "fraction");
  report->Set("exec.queue_wait_ms_p50", Percentile(wait, 50.0), "ms");
  report->Set("exec.queue_wait_ms_p99", Percentile(wait, 99.0), "ms");
  report->Set("exec.service_ms_p50", Percentile(service, 50.0), "ms");
}

// Request-scoped spans of the traced window, built from the client stamps
// and the provider stamps: request ⊃ exec.queue_wait, exec.service;
// exec.service ⊃ ingest.view (ingest_mix) or shard.leg (sharded_mix).
void AddRequestSpans(const Window& w, bool sharded, Tracer* tracer) {
  for (size_t i = 0; i < w.records.size(); ++i) {
    const Record& r = w.records[i];
    if (r.failed || r.dequeue_ns == 0) continue;
    const auto request = static_cast<int64_t>(i) + 1;
    const int64_t root =
        tracer->Add({"request", r.submit_ns, r.answer_ns, 0, 0, request, 1});
    tracer->Add(
        {"exec.queue_wait", r.submit_ns, r.dequeue_ns, 0, root, request, 1});
    const int64_t service = tracer->Add(
        {"exec.service", r.dequeue_ns, r.answer_ns, 0, root, request, 1});
    if (r.view_ns > 0) {
      tracer->Add({"ingest.view", r.dequeue_ns, r.dequeue_ns + r.view_ns, 0,
                   service, request, 1});
    }
    if (sharded) {
      for (const int64_t leg : r.leg_dequeue_ns) {
        tracer->Add({"shard.leg", leg, r.answer_ns, 0, service, request, 1});
      }
    }
  }
}

std::string Layer(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

// Self time per layer over the request-scoped spans, per request.
void SelfTimeMetrics(const std::vector<Span>& spans, double requests,
                     Report* report) {
  const std::map<int64_t, double> self = SelfTimesNs(spans);
  std::map<std::string, double> by_layer{
      {"exec", 0.0}, {"ingest", 0.0}, {"shard", 0.0}};
  for (const Span& s : spans) {
    if (s.request == 0) continue;
    const std::string layer = Layer(s.name);
    if (by_layer.count(layer) == 0) continue;
    by_layer[layer] += self.at(s.id);
  }
  for (const auto& [layer, ns] : by_layer) {
    report->Set("self." + layer + "_ms_per_query",
                requests > 0 ? ns / kNsPerMs / requests : 0.0, "ms");
  }
}

// The traced run's replay, self-check, kernel samples and derived shares.
void TracedAnalysis(Workload* workload, const RunConfig& config,
                    const Window& w, Tracer* tracer, RunResult* result) {
  Report& report = result->report;
  const std::vector<Stack> stacks = workload->Stacks();
  const std::vector<size_t> sample = workload->ReplaySample(w);
  std::vector<QuerySpec> specs;
  std::vector<int64_t> request_ids;
  for (const size_t i : sample) {
    specs.push_back(w.specs[i]);
    request_ids.push_back(static_cast<int64_t>(i) + 1);
  }

  // Deterministic-count self-check: two cold replays of the same queries.
  ResetCaches(stacks);
  int64_t m0 = BufferMisses(stacks);
  const std::vector<ReplayQuery> a = Replay(specs, stacks, nullptr, nullptr);
  const int64_t cold_a = BufferMisses(stacks) - m0;
  ResetCaches(stacks);
  m0 = BufferMisses(stacks);
  const std::vector<ReplayQuery> b = Replay(specs, stacks, nullptr, nullptr);
  const int64_t cold_b = BufferMisses(stacks) - m0;
  // Timed pass, warm: the caches as the second pass left them.
  const std::vector<ReplayQuery> c = Replay(specs, stacks, tracer, &request_ids);
  int64_t mismatches = cold_a == cold_b ? 0 : 1;
  for (size_t i = 0; i < specs.size(); ++i) {
    const MstStats& x = a[i].stats;
    const MstStats& y = b[i].stats;
    mismatches += x.nodes_accessed == y.nodes_accessed &&
                          x.leaf_entries_seen == y.leaf_entries_seen &&
                          x.exact_recomputations == y.exact_recomputations
                      ? 0
                      : 1;
  }
  if (mismatches > 0) {
    result->failed += mismatches;
    result->failures.push_back(
        "self-check: two same-seed replays gave different counts");
  }
  if (!workload->QuerySetDiffers(config.seed, config.seed + 1)) {
    ++result->failed;
    result->failures.push_back(
        "self-check: seed and seed+1 generate the same query set");
  }
  result->attempted += 1 + static_cast<int64_t>(specs.size());
  const double nq = std::max<double>(1.0, static_cast<double>(specs.size()));
  report.Set("selfcheck.replayed_queries", static_cast<double>(specs.size()),
             "count");
  report.Set("selfcheck.mismatches", static_cast<double>(mismatches), "count");
  report.Set("selfcheck.cold_physical_reads_per_query",
             static_cast<double>(cold_a) / nq, "count");

  std::vector<double> search_ms;
  double leaf = 0, refine = 0, pushes = 0, nc_hits = 0, nc_misses = 0;
  for (const ReplayQuery& q : c) {
    search_ms.push_back(q.ms);
    leaf += static_cast<double>(q.stats.leaf_entries_seen);
    refine += static_cast<double>(q.stats.exact_recomputations);
    pushes += static_cast<double>(q.stats.heap_pushes);
    nc_hits += static_cast<double>(q.stats.node_cache_hits);
    nc_misses += static_cast<double>(q.stats.node_cache_misses);
  }
  report.Set("core.search_ms_p50", Percentile(search_ms, 50.0), "ms");
  report.Set("core.search_ms_p99", Percentile(search_ms, 99.0), "ms");

  KernelTimes k;
  SampleKernels(specs, c, request_ids, stacks.front(), tracer, &k);
  const double seg_ns = Median(k.segment_dissim_ns);
  const double mindist_ns = Median(k.mindist_ns);
  const double refine_us = Median(k.refine_us);
  const double miss_us = Median(k.read_node_miss_us);
  const double hit_ns = Median(k.read_node_hit_ns);
  report.Set("core.segment_dissim_ns", seg_ns, "ns");
  report.Set("geom.mindist_ns", mindist_ns, "ns");
  report.Set("core.refine_us", refine_us, "us");
  report.Set("index.read_node_miss_us", miss_us, "us");
  report.Set("index.read_node_hit_ns", hit_ns, "ns");

  // Shares of the replayed single-thread search time, from kernel cost ×
  // per-query call counts of the same replay.
  const double search_ns = Mean(search_ms) * kNsPerMs;
  const auto share = [&](double ns_per_query) {
    return search_ns > 0 ? ns_per_query / search_ns : 0.0;
  };
  const double leaf_ns = seg_ns * leaf / nq;
  const double refine_ns = refine_us * 1e3 * refine / nq;
  const double mindist_per_push_ns =
      k.mindist_finite > 0
          ? k.mindist_total_ns / static_cast<double>(k.mindist_finite)
          : 0.0;
  const double geom_ns = mindist_per_push_ns * pushes / nq;
  const double index_ns = (miss_us * 1e3 * nc_misses + hit_ns * nc_hits) / nq;
  report.Set("core.leaf_kernel_share", share(leaf_ns), "fraction");
  report.Set("core.refine_share", share(refine_ns), "fraction");
  report.Set("geom.mindist_share", share(geom_ns), "fraction");
  report.Set("self.geom_ms_per_query", geom_ns / kNsPerMs, "ms");
  report.Set("self.index_ms_per_query", index_ns / kNsPerMs, "ms");
  report.Set("self.core_ms_per_query",
             (search_ns - geom_ns - index_ns) / kNsPerMs, "ms");

  // What the outside spans cannot attribute: for each replayed request,
  // its service time minus its view resolution minus its single-thread
  // search time, as a share of the window's query_p50_ms.
  std::map<int, double> replay_by_pool;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (w.records[sample[i]].pool >= 0) {
      replay_by_pool[w.records[sample[i]].pool] = c[i].ms;
    }
  }
  std::vector<double> unattributed;
  const auto add = [&](const Record& r, double replay_ms) {
    if (r.failed || r.dequeue_ns == 0) return;
    unattributed.push_back(
        static_cast<double>(r.answer_ns - r.dequeue_ns - r.view_ns) /
            kNsPerMs -
        replay_ms);
  };
  if (!replay_by_pool.empty()) {
    for (const Record& r : w.records) add(r, replay_by_pool[r.pool]);
  } else {
    for (size_t i = 0; i < sample.size(); ++i) add(w.records[sample[i]], c[i].ms);
  }
  const double p50 = Percentile(LatenciesMs(w), 50.0);
  report.Set("trace.unattributed_share",
             p50 > 0 ? Median(unattributed) / p50 : 0.0, "fraction");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_mix", "hot_repeat",
                                                 "ingest_mix", "sharded_mix"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  Report& report = result.report;
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  const bool sharded = config.workload == "sharded_mix";

  if (!config.trace) {
    // setup_s: the median of at least three complete set-ups, more while
    // they add up to under 4 s (short set-ups are the noisiest); the last
    // one serves the timed window.
    std::vector<double> setup_s;
    std::vector<double> build_s;
    double total_s = 0.0;
    while (setup_s.size() < 3 || (total_s < 4.0 && setup_s.size() < 7)) {
      const int64_t t0 = NowNs();
      build_s.push_back(workload->Setup(config.seed));
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      total_s += setup_s.back();
    }
    Window w = workload->Run(config.seconds, false, nullptr);
    workload->Verify(&w, &result);
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("index.build_s", Median(build_s), "s");
    EndToEndMetrics(w, &report);
    report.Set("index_bytes_per_segment", workload->IndexBytesPerSegment(),
               "B");
    for (const Record& r : w.records) result.failed += r.failed ? 1 : 0;
    result.attempted += static_cast<int64_t>(w.records.size());
  } else {
    // Untraced windows of half length before and after the traced one give
    // the reference qps for trace.overhead_pct; their mean cancels a steady
    // drift of the machine or of the engine's state. ingest_mix consumes
    // its stream, so it sets up again from the same seed before each
    // window.
    const bool fresh_state = config.workload == "ingest_mix";
    Tracer tracer;
    const auto setup = [&] {
      const int64_t t0 = NowNs();
      const double build_s = workload->Setup(config.seed);
      tracer.Add({"setup", t0, NowNs(), 0, 0, 0, 1});
      return build_s;
    };
    double build_s = setup();
    const double qps_before =
        Qps(workload->Run(config.seconds / 2, false, nullptr));
    if (fresh_state) build_s = setup();
    Window w = workload->Run(config.seconds, true, &tracer);
    workload->Verify(&w, &result);
    if (fresh_state) setup();
    const double qps_after =
        Qps(workload->Run(config.seconds / 2, false, nullptr));
    const double qps_untraced = (qps_before + qps_after) / 2;
    report.Set("index.build_s", build_s, "s");
    EndToEndMetrics(w, &report);
    QueryLayerMetrics(w, &report);
    workload->LayerMetrics(w, &report);
    AddRequestSpans(w, sharded, &tracer);
    const double requests = static_cast<double>(w.records.size());
    for (const Record& r : w.records) result.failed += r.failed ? 1 : 0;
    result.attempted += static_cast<int64_t>(w.records.size());
    TracedAnalysis(workload.get(), config, w, &tracer, &result);
    SelfTimeMetrics(tracer.Spans(), requests, &report);
    report.Set("trace.overhead_pct",
               qps_untraced > 0 ? (qps_untraced - Qps(w)) / qps_untraced * 100
                                : 0.0,
               "%");
    report.Set("trace.spans", static_cast<double>(tracer.Spans().size()),
               "count");
    const std::string path = config.trace_dir + "/trace_" + config.workload +
                             "_seed" + std::to_string(config.seed) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "warning: cannot write span file %s\n",
                   path.c_str());
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  }
  if (config.trace) {
    // Layer metrics of layers this workload does not exercise read 0.
    static const std::pair<const char*, const char*> kWorkloadSpecific[] = {
        {"exec.batch_ms_p50", "ms"},        {"exec.duplicate_share", "fraction"},
        {"ingest.view_ms_p50", "ms"},       {"ingest.view_ms_p99", "ms"},
        {"ingest.publishes_per_query", "count"},
        {"ingest.delta_entries_at_query", "count"},
        {"ingest.merge_s", "s"},            {"ingest.merges", "count"},
        {"ingest.wal_bytes_per_record", "B"},
        {"ingest.wal_syncs_per_batch", "count"},
        {"ingest.writer_late_ms_max", "ms"}, {"append_p50_ms", "ms"},
        {"append_p99_ms", "ms"},            {"recovery_s", "s"},
        {"shard.node_reads_per_query", "count"},
        {"shard.leg_wait_ms_p50", "ms"},    {"shard.leg_skew_ms_p99", "ms"}};
    for (const auto& [name, unit] : kWorkloadSpecific) {
      if (!report.Has(name)) report.Set(name, 0.0, unit);
    }
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("error_rate",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<int64_t>(result.attempted, 1)),
             "fraction");
  return result;
}

}  // namespace e2e
