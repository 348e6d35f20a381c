#include "bench_e2e/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/linear_scan.h"
#include "src/gen/gstd.h"
#include "src/util/random.h"

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

std::string Report::AllJson() const {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g", metric.first);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.second + "\"}";
  }
  return out + "}";
}

std::string Report::Text() const {
  std::string out;
  char buf[160];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-36s %14.6g %s\n", name.c_str(),
                  metric.first, metric.second.c_str());
    out += buf;
  }
  return out;
}

const std::vector<Cell>& PaperCells() {
  static const std::vector<Cell> cells = [] {
    std::vector<Cell> out;
    for (const int k : {1, 10, 50}) {
      for (const double length : {0.05, 0.25}) {
        for (const auto policy : {mst::IntegrationPolicy::kTrapezoid,
                                  mst::IntegrationPolicy::kExact}) {
          out.push_back({k, length, policy});
        }
      }
    }
    return out;
  }();
  return cells;
}

std::string CellName(const Cell& cell) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "k%d/L%.2f/%s", cell.k, cell.length,
                cell.policy == mst::IntegrationPolicy::kExact ? "exact"
                                                              : "trapezoid");
  return buf;
}

QuerySpec MakeSliceQuery(const mst::TrajectoryStore& store, uint64_t seed,
                         uint64_t index, const Cell& cell, int cell_id) {
  mst::Rng rng = mst::Rng(seed ^ 0x51ce5eedULL).Fork(index);
  const mst::Trajectory& base =
      store.trajectories()[rng.UniformIndex(store.size())];
  const double span = base.end_time() - base.start_time();
  const double len = span * cell.length;
  const double begin =
      base.start_time() + rng.Uniform(0.0, std::max(0.0, span - len));
  const mst::Trajectory slice = *base.Slice({begin, begin + len});
  mst::MstOptions options;
  options.k = cell.k;
  options.policy = cell.policy;
  mst::Trajectory query(kQueryId, slice.samples());
  const mst::TimeInterval period = query.Lifespan();
  return {std::move(query), period, options, cell_id};
}

mst::TrajectoryStore MakeGstd(int objects, int samples, uint64_t seed) {
  mst::GstdOptions opt;
  opt.num_objects = objects;
  opt.samples_per_object = samples;
  opt.speed = mst::GstdOptions::SpeedDistribution::kLogNormal;
  opt.speed_param1 = 1.0;
  opt.speed_param2 = 0.6;
  opt.timestamp_jitter = 0.4;
  opt.seed = mst::Rng(seed).Fork(static_cast<uint64_t>(objects) * 10007u +
                                 static_cast<uint64_t>(samples))
                 .NextU64();
  return mst::GenerateGstd(opt);
}

namespace {

bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max({std::abs(a), std::abs(b), 1e-12});
}

}  // namespace

bool SameAnswer(const std::vector<mst::MstResult>& got,
                const std::vector<mst::MstResult>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Close(got[i].dissim, want[i].dissim)) return false;
    if (got[i].id == want[i].id) continue;
    // A near-tie may order two ids differently; accept the swap only when
    // the oracle holds the id at an equally-valued rank.
    bool tied = false;
    for (size_t j = 0; j < want.size() && !tied; ++j) {
      tied = want[j].id == got[i].id && Close(want[j].dissim, got[i].dissim);
    }
    if (!tied) return false;
  }
  return true;
}

std::vector<mst::MstResult> OracleAnswer(const mst::TrajectoryStore& store,
                                         const QuerySpec& spec) {
  return mst::LinearScanKMst(store, spec.query, spec.period, spec.options.k,
                             mst::IntegrationPolicy::kExact,
                             spec.options.exclude_id);
}

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  const int count = std::max(1, std::min(threads, n));
  pool.reserve(static_cast<size_t>(count));
  for (int t = 0; t < count; ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

int64_t Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"begin_ns\": " << s.begin_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"count\": " << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<int64_t, double> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.begin_ns, s.end_ns});
  }
  std::map<int64_t, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_begin = 0;
      int64_t cur_end = 0;
      bool open = false;
      for (const auto& [b0, e0] : iv) {
        const int64_t b = std::max(b0, s.begin_ns);
        const int64_t e = std::min(e0, s.end_ns);
        if (e <= b) continue;
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, e);
          continue;
        }
        if (open) covered += static_cast<double>(cur_end - cur_begin);
        cur_begin = b;
        cur_end = e;
        open = true;
      }
      if (open) covered += static_cast<double>(cur_end - cur_begin);
    }
    self[s.id] = static_cast<double>(s.end_ns - s.begin_ns) - covered;
  }
  return self;
}

}  // namespace e2e
