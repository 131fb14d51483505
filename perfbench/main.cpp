// The repository benchmark: the per-query search cost of a resident
// core::SearchSession on the modeled clock (K20c device time plus the host
// CPU stages pipelined with it) and on the host clock (what the simulator
// itself costs), checked against FSA-BLAST.
//
//   perfbench --workload=env_mix --seed=2014 --seconds=10 --trace=0
//
// --trace=0 measures the end-to-end metrics with tracing off; --trace=1
// runs the per-layer composition under spans (see traced.cpp) and writes
// them to --spans_out. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit code 0 on a correct run, 1 when any query failed, 2 on bad usage.
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "runs.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

void print_table(const RunResult& result) {
  std::printf("\n%-42s %16s %-6s %-8s %s\n", "metric", "value", "unit",
              "clock", "note");
  for (const Metric& m : result.metrics)
    std::printf("%-42s %16.6g %-6s %-8s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), m.note.c_str(),
                m.gated ? "" : " (not gated)");
  const auto& f = result.failures;
  std::printf(
      "\nfailed_frac %.6g [count]: %llu of %llu attempted queries failed "
      "(threw %llu, degraded %llu, alignments differ %llu)\n",
      f.failed_frac(), static_cast<unsigned long long>(f.failed),
      static_cast<unsigned long long>(f.attempted),
      static_cast<unsigned long long>(f.threw),
      static_cast<unsigned long long>(f.degraded),
      static_cast<unsigned long long>(f.mismatched));
}

std::string full_precision(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string result_line(const RunResult& result, bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.failures.attempted);
  line += ", \"failed\": " + std::to_string(result.failures.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!m.gated) continue;
    if (!first) line += ", ";
    first = false;
    line += repro::util::json_str(m.name) + ": {\"value\": " +
            full_precision(m.value) +
            ", \"unit\": " + repro::util::json_str(m.unit) + "}";
  }
  return line + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, whose state
  // follows the allocation history: with it, peak RSS moved by a factor of
  // four between databases generated from different seeds. Fixed, the
  // large device buffers are mapped and unmapped whole, and peak RSS
  // follows the live footprint.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const repro::util::Options options(argc, argv);
  const std::string name = options.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 2014));
  const double seconds = options.get_double("seconds", 10.0);
  const std::int64_t trace = options.get_int("trace", 0);
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "perfbench: need --seconds > 0 and --trace 0|1\n");
    return 2;
  }

  perfbench::Workload workload;
  try {
    workload = perfbench::make_workload(name, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  // The paper's default configuration: window extension, 128 bins per
  // warp, read-only cache on, 4 database blocks, 4 CPU threads; one engine
  // worker, one shard, pre-filter off (the Config defaults).
  const repro::core::Config config = repro::benchx::default_cublastp_config();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%lld\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              seconds, static_cast<long long>(trace));
  std::printf("%s: %zu subjects, %llu residues\n", workload.description.c_str(),
              workload.db.size(),
              static_cast<unsigned long long>(workload.db.total_residues()));

  RunResult result;
  try {
    result = trace == 0 ? perfbench::run_untraced(workload, config, seconds)
                        : perfbench::run_traced(workload, config, seconds,
                                                options.get("spans_out", ""));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  const bool correct =
      result.failures.failed == 0 && result.failures.attempted > 0;
  print_table(result);
  std::printf("%s\n", result_line(result, correct).c_str());
  return correct ? 0 : 1;
}
