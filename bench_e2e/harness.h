// Shared pieces of the end-to-end benchmark: clocks and process
// counters, percentiles, the metric report, the paper's query mix, the
// LinearScan oracle comparison and the span recorder of the traced run.
//
// Everything here sits outside the engine: it calls only public functions
// of src/ and times them from the caller's side.

#ifndef MST_BENCH_E2E_HARNESS_H_
#define MST_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/dissim.h"
#include "src/core/mst_search.h"
#include "src/geom/interval.h"
#include "src/geom/trajectory.h"

namespace e2e {

// ---- Clocks and process counters ------------------------------------------

/// steady_clock in nanoseconds.
int64_t NowNs();
/// Process CPU time, user + sys, in seconds.
double ProcessCpuSeconds();
/// Peak resident set size (VmHWM) in MB.
double PeakRssMb();
/// Sleeps until the steady_clock reaches `deadline_ns`.
void SleepUntilNs(int64_t deadline_ns);

// ---- Statistics ------------------------------------------------------------

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// ---- Report ----------------------------------------------------------------

/// Named metrics of one run with their units. End-to-end metrics are the
/// untraced run's; per-layer metrics come from the traced run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// `{"name": {"value": v, "unit": u}, ...}` over every metric.
  std::string AllJson() const;
  /// Every metric, one "name value unit" line each.
  std::string Text() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// ---- The query mix ---------------------------------------------------------

/// One cell of the paper's Table 3 / Fig. 10 mix.
struct Cell {
  int k = 1;
  double length = 0.05;  // fraction of the base trajectory's lifespan
  mst::IntegrationPolicy policy = mst::IntegrationPolicy::kTrapezoid;
};

/// k ∈ {1, 10, 50} × length ∈ {0.05, 0.25} × policy ∈ {trapezoid + exact
/// post-processing (the default), exact}: 12 cells.
const std::vector<Cell>& PaperCells();
/// Short printable cell name, e.g. "k10/L0.25/exact".
std::string CellName(const Cell& cell);

/// Id every generated query trajectory carries (never an indexed id).
constexpr mst::TrajectoryId kQueryId = 1 << 29;

/// One k-MST request as the benchmark generates it.
struct QuerySpec {
  mst::Trajectory query{kQueryId, {mst::TPoint{}}};
  mst::TimeInterval period;
  mst::MstOptions options;
  int cell = 0;
};

/// The `index`-th query of seed `seed`: a slice covering `cell.length` of a
/// seeded data trajectory, over its own lifespan. Deterministic in
/// (seed, index); a fresh slice for every index.
QuerySpec MakeSliceQuery(const mst::TrajectoryStore& store, uint64_t seed,
                         uint64_t index, const Cell& cell, int cell_id);

/// GSTD dataset of the paper's S-series shape (lognormal speeds, jittered
/// sampling instants) with `objects` × `samples`, generated from `seed`.
mst::TrajectoryStore MakeGstd(int objects, int samples, uint64_t seed);

// ---- Oracle ----------------------------------------------------------------

/// True when `got` matches `want` (the LinearScan answer): same length,
/// every dissim within 1e-6 relative of the oracle's at the same rank, and
/// the same ids, where ids may trade places only between ranks whose
/// oracle dissims are themselves within that tolerance.
bool SameAnswer(const std::vector<mst::MstResult>& got,
                const std::vector<mst::MstResult>& want);

/// LinearScanKMst's exact answer for `spec` over `store`.
std::vector<mst::MstResult> OracleAnswer(const mst::TrajectoryStore& store,
                                         const QuerySpec& spec);

/// Runs fn(i) for i in [0, n) on up to `threads` threads and joins them.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

// ---- Tracing ---------------------------------------------------------------

/// One recorded span. Times are steady_clock nanoseconds; `parent` is the
/// enclosing span's id (0 = none); `request` ties every span of one request
/// together (0 = not request-scoped); `count` is the number of kernel calls
/// a kernel-sample span covers (1 otherwise).
struct Span {
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  int64_t count = 1;
};

/// In-memory span store of the traced run; thread-safe. Written to one file
/// when the run ends.
class Tracer {
 public:
  /// Records a span and returns its id (a fresh one when span.id == 0).
  int64_t Add(Span span);
  std::vector<Span> Spans() const;
  /// One JSON object per line: name, begin_ns, end_ns, id, parent,
  /// request, count. Returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

/// Self time of every span: its duration minus the part of it covered by
/// its children (union of child intervals clipped to the span). Keyed by
/// span id.
std::map<int64_t, double> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace e2e

#endif  // MST_BENCH_E2E_HARNESS_H_
