// Shared plumbing for the figure benches: workload construction at a
// configurable scale, engine configurations, and table/figure headers.
//
// Every bench accepts:
//   --swissprot=N   sequences in the swissprot-like database (default 2500)
//   --env_nr=N      sequences in the env_nr-like database (default 6000)
//   --seed=S        generator seed (default 2014, the paper's year)
//   --quick         quarter-scale run for smoke testing
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/coarse_gpu.hpp"
#include "baselines/cpu.hpp"
#include "bio/generator.hpp"
#include "core/cublastp.hpp"
#include "core/kernels.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace repro::benchx {

/// The paper's three benchmark queries (§4): short / medium / long.
inline constexpr std::size_t kQueryLengths[] = {127, 517, 1054};

struct BenchSetup {
  std::size_t swissprot_seqs = 2500;
  std::size_t env_nr_seqs = 6000;
  std::uint64_t seed = 2014;

  static BenchSetup from_options(const util::Options& options);
};

struct Workload {
  std::string query_name;
  std::string db_name;
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
};

/// Builds "queryL vs swissprot-like" or "queryL vs env_nr-like".
[[nodiscard]] Workload make_workload(const BenchSetup& setup,
                                     std::size_t query_length,
                                     bool env_nr);

/// The cuBLASTP configuration used across benches: core::Config's
/// defaults (one 8-warp K1 block per SM, 64 bins/warp, window-based
/// extension, read-only cache on, 4 CPU threads, automatic
/// scoring-structure choice), so benches, perfbench and blastp_cli agree.
[[nodiscard]] core::Config default_cublastp_config();

/// The coarse-baseline configuration used across benches.
[[nodiscard]] baselines::CoarseConfig default_coarse_config();

/// Prints the standard bench banner: figure id, what the paper reports,
/// and what this reproduction measures.
void print_banner(const std::string& figure, const std::string& paper_claim,
                  const BenchSetup& setup);

/// A JSON object stamping a bench result with where it came from: the
/// configure-time git SHA, build type, compiler, and the engine tunables
/// that shaped the run. Embedded in every bench_results/*.json so a result
/// file found later is attributable without the shell history.
[[nodiscard]] std::string provenance_json(const core::Config& config);

/// Builds one bench_results JSON document (schema "cublastp.bench.v1"):
/// provenance + workload stamp + a "deterministic" section (modeled
/// numbers, identical across runs and machines at a given scale — what
/// scripts/check_bench_regression.py compares against the committed
/// baseline) + a "measured" section (host wall-clock and anything else
/// machine-dependent; informational only, never gated).
///
///   benchx::BenchResult result("fig19_profiling", config, setup);
///   result.deterministic("filter_survival_ratio", ratio);
///   result.measured("host_wall_s", timer.seconds());
///   result.write(options, "bench_results/fig19_profiling.json");
///
/// Values are raw JSON fragments: the double/uint64 overloads format
/// scalars, and the string overload passes objects/arrays through
/// verbatim, so nested structure composes without a JSON library.
class BenchResult {
 public:
  BenchResult(std::string bench_name, const core::Config& config,
              const BenchSetup& setup);

  /// Stamps query/db names and the database size.
  void set_workload(const Workload& workload);

  void deterministic(const std::string& key, double value);
  void deterministic(const std::string& key, std::uint64_t value);
  void deterministic_raw(const std::string& key, const std::string& json);
  void measured(const std::string& key, double value);
  void measured_raw(const std::string& key, const std::string& json);

  [[nodiscard]] std::string to_json() const;

  /// Writes to --json_out (default `default_path`), creating directories.
  /// Returns a process exit code (0 ok, 1 I/O failure).
  int write(const util::Options& options,
            const std::string& default_path) const;

 private:
  std::string bench_name_;
  std::string provenance_;
  std::string workload_;
  BenchSetup setup_;
  std::vector<std::pair<std::string, std::string>> deterministic_;
  std::vector<std::pair<std::string, std::string>> measured_;
};

/// `--json` mode: measures the cuBLASTP engine's host wall-clock (serial
/// vs the SM-sharded parallel engine with 2 and 4 workers) alongside the
/// modeled GPU milliseconds on the query127/swissprot workload, and writes
/// the result as JSON (default `bench_results/engine_wallclock.json`;
/// override with `--json_out=PATH`). Pass `--baseline_wall_s=S` (the same
/// measurement taken with a pre-change binary) to embed the speedup ratio.
/// Returns a process exit code.
int run_engine_wallclock_json(const util::Options& options,
                              const BenchSetup& setup,
                              const std::string& bench_name);

}  // namespace repro::benchx
