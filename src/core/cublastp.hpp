// The cuBLASTP engine: fine-grained GPU phases (hit detection with binning,
// sorting out of the bins, filtering, ungapped extension) pipelined with the
// multithreaded CPU phases (gapped extension, alignment with traceback),
// per paper Fig. 12.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/database.hpp"
#include "blast/types.hpp"
#include "core/config.hpp"
#include "core/errors.hpp"
#include "simt/engine.hpp"

namespace repro::core {

/// One engine shard's contribution to a query (the report's "shards"
/// section; DESIGN.md §17): which contiguous database-block slice it
/// owned, how far down the degradation ladder it went, and the modeled
/// device milliseconds it ran. A one-shard SearchSession reports exactly
/// one summary (shard 0, every block), so the section shape is identical
/// at every fleet size.
struct ShardSummary {
  std::uint32_t shard = 0;        ///< fleet index
  std::uint32_t first_block = 0;  ///< global index of its first block
  std::uint32_t num_blocks = 0;   ///< contiguous blocks it owns
  std::uint64_t retry_attempts = 0;   ///< failed ladder rungs, summed
  std::uint64_t degraded_blocks = 0;  ///< blocks its CPU fallback served
  std::uint64_t cache_off_retries = 0;
  std::uint64_t bin_overflow_retries = 0;
  double kernel_ms = 0.0;  ///< modeled device ms this shard executed
};

/// Everything a cuBLASTP search reports: the BLAST result (identical to
/// FSA-BLAST's, paper §4.3), modeled GPU kernel times, measured/makespan
/// CPU times, transfer times, and the per-kernel profile (Fig. 19 inputs).
struct SearchReport {
  blast::SearchResult result;

  /// End-to-end host wall-clock of this query in milliseconds (GPU-phase
  /// entry through the end of finalization). Schema v3 field.
  double wall_ms = 0.0;

  /// Terminal status of the query: "ok" | "degraded" for completed
  /// searches (set by the session), and "cancelled" | "deadline_exceeded" |
  /// "rejected" when a core::SearchService terminated the request before a
  /// result existed (the service stamps the otherwise-empty report so the
  /// JSON document still says what happened). Schema v3 field.
  std::string status = "ok";

  // Modeled device-side milliseconds, per kernel family.
  double detection_ms = 0.0;
  double scan_ms = 0.0;      ///< bin-offset scan (part of sorting)
  double sort_ms = 0.0;
  double filter_ms = 0.0;
  double extension_ms = 0.0;
  double h2d_ms = 0.0;
  double d2h_ms = 0.0;

  // CPU-side seconds (T-worker makespans of measured per-task costs).
  double gapped_seconds = 0.0;
  double traceback_seconds = 0.0;
  double other_seconds = 0.0;  ///< DFA/PSSM build, finalization

  // Pipeline totals (seconds): with and without CPU/GPU/PCIe overlap.
  double overlapped_total_seconds = 0.0;
  double serial_total_seconds = 0.0;

  // Diagnostics.
  std::uint64_t bin_overflow_retries = 0;
  simt::ProfileRegistry profile;

  /// Hazards found by the simtcheck analyzer (empty unless
  /// Config::simtcheck or REPRO_SIMTCHECK enabled it; see simtcheck.hpp).
  simt::HazardReport hazards;

  // Degradation-ladder observability (see DESIGN.md §9). A fault-free
  // search has degraded_blocks == 0, all-zero retry_counts, and
  // faults_encountered == 0, so callers can alert on any nonzero value.
  std::uint64_t degraded_blocks = 0;   ///< blocks served by the CPU fallback
  std::uint64_t cache_off_retries = 0; ///< blocks retried with rocache off
  /// Per block: failed GPU attempts. 2 means both GPU rungs failed and the
  /// CPU fallback served the block.
  std::vector<std::uint32_t> retry_counts;
  std::uint64_t faults_encountered = 0;  ///< injected faults absorbed

  // Scatter–gather fleet observability (DESIGN.md §17): one summary per
  // engine shard, in shard (= global block) order. A single-engine search
  // carries exactly one entry covering every block.
  std::vector<ShardSummary> shards;

  [[nodiscard]] bool degraded() const {
    return degraded_blocks != 0 || cache_off_retries != 0;
  }

  [[nodiscard]] double gpu_critical_ms() const {
    return detection_ms + scan_ms + sort_ms + filter_ms + extension_ms;
  }
  /// "Hit sorting" as the paper groups it in Fig. 14: the bin scan + the
  /// segmented sort, which also assembles the bins.
  [[nodiscard]] double sorting_group_ms() const {
    return scan_ms + sort_ms;
  }

  /// Machine-readable run report (schema "cublastp.search_report.v5"):
  /// phase times, pipeline totals, work counters, degradation ladder,
  /// hazards, and the full per-kernel profile — everything CI and bench
  /// scripts previously scraped from stdout. v3 added the top-level
  /// `wall_ms` and terminal `status` fields; v4 added the per-shard
  /// `shards` section (DESIGN.md §17); v5 drops the pre-filter section,
  /// its two `gpu_ms` rows and each shard's `backends`. See
  /// core/report.cpp.
  [[nodiscard]] std::string to_json() const;

  /// Human-readable phase/profile tables (util::Table) for --report.
  [[nodiscard]] std::string to_table() const;
};

/// One-shot search entry point: each call builds a fresh one-query
/// SearchSession (fresh engine, fresh database upload), so results and
/// profiles are private to the call. For many queries against the same
/// database, hold a core::SearchSession (search_session.hpp) instead — it
/// keeps the database device-resident across queries and can batch them.
class CuBlastp {
 public:
  explicit CuBlastp(Config config);

  /// Runs a full search. Deterministic; the SIMT engine (and its profile)
  /// is private to each call.
  [[nodiscard]] SearchReport search(std::span<const std::uint8_t> query,
                                    const bio::SequenceDatabase& db) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace repro::core
