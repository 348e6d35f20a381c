// The four workloads of the end-to-end benchmark (see README.md for why each
// exists, its sizes, loop type and thread budget).

#ifndef MST_BENCH_E2E_WORKLOADS_H_
#define MST_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_e2e/harness.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the untraced run (end-to-end metrics). true: the traced run
  /// (per-layer metrics, replay self-check, kernel samples, span file).
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir;
};

struct RunResult {
  Report report;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed check, for the log.
  std::vector<std::string> failures;
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Unknown names abort the process.
RunResult RunWorkload(const RunConfig& config);

}  // namespace e2e

#endif  // MST_BENCH_E2E_WORKLOADS_H_
