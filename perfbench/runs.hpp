// The two kinds of benchmark run. Both drive the program with the same
// config and check every query against FSA-BLAST; they differ in what they
// measure.
#pragma once

#include <string>
#include <vector>

#include "blast/types.hpp"
#include "core/config.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One printed metric. `clock` says what the number is measured on:
/// "modeled" (K20c device time plus the host CPU stages pipelined with it),
/// "device" (modeled device time only), "host" (what the simulator itself
/// costs), or "count" for work counts and ratios that are on no clock.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;
  std::string note;
  /// false: printed for reading, left out of the JSON result and the gate.
  bool gated = true;
};

struct RunResult {
  std::vector<Metric> metrics;
  FailureCount failures;
};

/// FSA-BLAST alignments for every query of the workload, the correctness
/// reference. `host_ms`, when set, receives the mean host ms per query.
[[nodiscard]] std::vector<std::vector<repro::blast::Alignment>> fsa_references(
    const Workload& workload, const repro::core::Config& config,
    double* host_ms = nullptr);

/// End-to-end run, tracing off: set-up, then `seconds` of searches.
[[nodiscard]] RunResult run_untraced(const Workload& workload,
                                     const repro::core::Config& config,
                                     double seconds);

/// Per-layer run: the session's layers called one by one under spans,
/// each query checked against the untraced session. Writes the spans to
/// `spans_path` when it is not empty.
[[nodiscard]] RunResult run_traced(const Workload& workload,
                                   const repro::core::Config& config,
                                   double seconds,
                                   const std::string& spans_path);

}  // namespace perfbench
