// End-to-end benchmark binary of the default k-MST engine. Normally started
// through bench_e2e/run.py, which builds it:
//
//   e2e_bench --workload paper_mix --seed 1 --seconds 15 --trace 0
//             [--trace_dir DIR]
//
// Prints every metric with its unit to stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any answer or self-check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_e2e/workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace_dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  config.trace_dir = ".bench_build/traces";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace_dir") {
      config.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : e2e::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!(config.seconds > 0.0 && config.seconds <= 120.0)) {
    return Usage("--seconds must be in (0, 120]");
  }
  if (config.trace) {
    std::error_code ec;
    std::filesystem::create_directories(config.trace_dir, ec);
  }

  const e2e::RunResult result = e2e::RunWorkload(config);
  std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d\n%s",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0, result.report.Text().c_str());
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.report.AllJson().c_str());
  return correct ? 0 : 1;
}
