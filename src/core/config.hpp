// cuBLASTP engine configuration: the paper's tunables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "blast/types.hpp"
#include "simt/device.hpp"

namespace repro::core {

/// K1's block: 8 warps, each owning its own bins (Algorithm 2).
inline constexpr int kDetectionBlockThreads = 256;

/// Which fine-grained ungapped-extension kernel to run (paper §3.4,
/// Fig. 9b-d; selectable at run time, as the paper prescribes).
enum class ExtensionStrategy {
  kDiagonal,  ///< Algorithm 3: one thread per diagonal
  kHit,       ///< Algorithm 4: one thread per hit + de-duplication
  kWindow,    ///< Algorithm 5: one window of lanes per diagonal
};

/// How the extension kernels score residue pairs (paper §3.5, Fig. 15).
enum class ScoringMode {
  kAuto,    ///< PSSM for short queries, BLOSUM62 for long ones
  kPssm,    ///< position-specific matrix (shared memory while it fits)
  kBlosum,  ///< 2 kB BLOSUM62 always in shared memory
};

struct Config {
  blast::SearchParams params;

  /// Bins per detection warp (paper Fig. 14, whose optimum was 128). On
  /// the 104-warp grid below Fig. 14's sweep is best at 64, which keeps
  /// the resident grid of 104 warps x 64 bins x 256 slots at 13.6 MB.
  int num_bins_per_warp = 64;

  /// K1 blocks of kDetectionBlockThreads: one per SM of the modeled K20c.
  /// Warps own bins, so the grid is fixed for a search.
  int detection_blocks = simt::DeviceSpec{}.num_sms;

  /// Initial per-bin capacity in packed hits; grows on overflow.
  std::size_t bin_capacity = 256;

  /// Cap on overflow-driven capacity doublings per block attempt. Hitting
  /// it surfaces SearchError{kBinOverflowExhausted} to the degradation
  /// ladder instead of looping forever (the paper's fixed-capacity bins of
  /// §3.2 must overflow eventually on adversarial input).
  int max_bin_retries = 8;

  /// Hard ceiling on the grown per-bin capacity (guards the uint32 counter
  /// fields long before they can wrap, and bounds the slots buffer: it
  /// holds warps x bins x capacity 8-byte elements, about 0.87 GB at this
  /// cap for the default grid).
  std::uint32_t max_bin_capacity = 1u << 14;

  ExtensionStrategy strategy = ExtensionStrategy::kWindow;
  ScoringMode scoring = ScoringMode::kAuto;
  int window_size = 8;  ///< lanes per window in the window-based kernel

  /// Hierarchical buffering toggle (paper Fig. 17): route the DFA query
  /// positions through the read-only cache.
  bool use_readonly_cache = true;

  /// Queries at most this long use the PSSM under ScoringMode::kAuto.
  std::size_t auto_pssm_max_query = 256;

  /// Database blocks for the CPU/GPU pipeline (paper Fig. 12).
  std::size_t db_blocks = 4;

  /// CPU worker threads for gapped extension and traceback.
  std::size_t cpu_threads = 4;

  /// Host worker threads the SIMT engine uses to execute blocks
  /// (SM-sharded; see DESIGN.md). 1 = serial engine. Any value yields
  /// bit-identical results and metrics.
  int engine_workers = 1;

  /// Modeled GPUs in the fleet (DESIGN.md §17): core::SearchSession
  /// partitions the database blocks contiguously across this many
  /// core::EngineShard units and runs every shard's GPU half, in shard
  /// order, for each query. 1 = the single-engine layout. Clamped to the
  /// block count; any value yields results bit-identical to one engine.
  std::size_t shards = 1;

  /// Runs every kernel under the simtcheck hazard analyzer (racecheck/
  /// synccheck/memcheck; see simt/simtcheck.hpp) and fills
  /// SearchReport::hazards. false still honours the REPRO_SIMTCHECK
  /// environment toggle the Engine reads at construction.
  bool simtcheck = false;

  /// Runs the host-side concurrency analyzer (util/svccheck.hpp): lock-
  /// order graph over the service/pool mutexes, blocked-while-locked
  /// waits, and cancellation checkpoint-coverage assertions, surfaced as
  /// SearchReport::hazards. false still honours the REPRO_SVCCHECK
  /// environment toggle, read when a session or service is constructed.
  bool svccheck = false;

  /// Fault-injection schedule installed into util::FaultInjector for the
  /// duration of each search() (see util/fault.hpp for the grammar).
  /// Empty = leave the process-wide (env-driven) schedule untouched.
  std::string fault_schedule;
  std::uint64_t fault_seed = 0;  ///< 0 = util::default_fault_seed()

  /// Non-empty: search() records a Chrome-trace session and writes it here
  /// (see util/trace.hpp; load in chrome://tracing or Perfetto). Empty:
  /// the REPRO_TRACE environment variable supplies the path instead, and
  /// if neither is set tracing stays off (one branch per site). When an
  /// outer session is already active (e.g. blastp_cli --trace spanning
  /// several queries), search() joins it rather than starting its own.
  std::string trace_path;

  /// Non-empty: the process metrics registry is exported here after
  /// search() (".prom"/".txt" = Prometheus text, ".json" = JSON; any other
  /// extension is a SearchError{kInvalidArgument}). Empty: the
  /// REPRO_METRICS environment variable is honoured the same way.
  std::string metrics_path;

  /// Non-empty: the session's continuous profiler (simt/simtprof.hpp)
  /// exports its cumulative "cublastp.profile.v1" JSON here after every
  /// search/batch, so the file always holds the run-to-date aggregate.
  /// Must end in ".json". Empty: the REPRO_PROFILE environment variable is
  /// honoured the same way; if neither is set nothing is written (the
  /// profiler still aggregates — collection is always on and cheap).
  std::string profile_path;

  [[nodiscard]] int detection_warps() const {
    return detection_blocks * kDetectionBlockThreads / simt::kWarpSize;
  }
};

/// A configured output path, or the environment variable that stands in
/// for it when unset (Config::trace_path / REPRO_TRACE and friends).
[[nodiscard]] inline std::string path_or_env(const std::string& configured,
                                             const char* env_name) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv(env_name)) return env;
  return {};
}

}  // namespace repro::core
