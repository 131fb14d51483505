// Coarse-grained GPU comparators (paper §5, Fig. 18e-h, Fig. 19):
//
//  * CudaBlastpSim — models CUDA-BLASTP [29]: one thread per subject
//    sequence runs the fused, interleaved hit-detection + ungapped-
//    extension loop of Algorithm 1 (per-thread lasthit arrays in global
//    memory); the database is pre-sorted by descending length, its
//    load-balancing trick.
//
//  * GpuBlastpSim — models GPU-BLASTP [26]: the same coarse kernel, but
//    sequences are claimed from a runtime work queue (global atomic
//    ticket), its improvement over static assignment.
//
// Both produce output identical to FSA-BLAST (each lane executes the same
// per-sequence semantics), so the comparison isolates the execution-shape
// differences the paper measures: branch divergence from the one-thread-
// per-alignment mapping and uncoalesced per-thread memory access.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "baselines/coarse_block.hpp"
#include "bio/database.hpp"
#include "blast/types.hpp"
#include "core/device_data.hpp"
#include "simt/engine.hpp"
#include "simt/metrics.hpp"
#include "simt/simtcheck.hpp"

namespace repro::baselines {

struct CoarseConfig {
  blast::SearchParams params;
  int grid_blocks = 8;
  int block_threads = 128;
  /// Per-block output-buffer capacity (extensions); grows on overflow.
  std::uint32_t block_output_capacity = 4096;
  /// Database blocks (transfers modeled per block, no CPU/GPU overlap —
  /// neither baseline pipelines the way cuBLASTP does).
  std::size_t db_blocks = 4;
  /// Runs the fused kernel under the simtcheck hazard analyzer and fills
  /// CoarseReport::hazards (REPRO_SIMTCHECK also enables it).
  bool simtcheck = false;
};

/// Report mirroring core::SearchReport's fields relevant to the baselines.
struct CoarseReport {
  blast::SearchResult result;
  double kernel_ms = 0.0;  ///< the single fused coarse kernel
  double h2d_ms = 0.0;
  double d2h_ms = 0.0;
  double gapped_seconds = 0.0;
  double traceback_seconds = 0.0;
  double other_seconds = 0.0;
  double total_seconds = 0.0;  ///< serial: kernel + transfers + CPU phases
  std::uint64_t output_overflow_retries = 0;
  simt::ProfileRegistry profile;
  simt::HazardReport hazards;  ///< simtcheck findings (when enabled)

  [[nodiscard]] double critical_ms() const { return kernel_ms; }
};

/// Long-lived baseline session — the coarse-grained counterpart of
/// core::SearchSession, so throughput comparisons against the session API
/// stay apples-to-apples: the engine, the (optionally length-sorted)
/// database view, and the device-resident blocks persist across queries,
/// and each block is uploaded exactly once, lazily, by the first search
/// that touches it. Per-query reports attribute only that query's kernel
/// launches and transfers (profile snapshot diff).
class CoarseSession {
 public:
  /// `sort_by_length` is CUDA-BLASTP's load-balancing trick (the sorted
  /// copy is built once here, amortized like the residency);
  /// `dynamic_queue` is GPU-BLASTP's runtime work queue.
  CoarseSession(const bio::SequenceDatabase& db, CoarseConfig config,
                bool sort_by_length, bool dynamic_queue);

  CoarseSession(const CoarseSession&) = delete;
  CoarseSession& operator=(const CoarseSession&) = delete;

  [[nodiscard]] CoarseReport search(std::span<const std::uint8_t> query);

  [[nodiscard]] const CoarseConfig& config() const { return config_; }
  /// h2d_block bytes uploaded so far (fault-free: the full image, once).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return uploaded_bytes_;
  }
  [[nodiscard]] std::uint64_t block_uploads() const { return uploads_; }

 private:
  const core::BlockDevice& ensure_resident(std::size_t bi);

  CoarseConfig config_;
  const bio::SequenceDatabase* original_db_;
  bool dynamic_queue_;

  // CUDA-BLASTP's sorted view (empty permutation when sorting is off).
  bio::SequenceDatabase sorted_storage_;
  const bio::SequenceDatabase* db_;  ///< the view kernels scan
  std::vector<std::uint32_t> to_original_;
  double sort_seconds_ = 0.0;  ///< one-time view build, charged to the
                               ///< first search's "other" phase

  simt::Engine engine_;
  std::vector<std::pair<std::size_t, std::size_t>> blocks_;
  std::vector<std::optional<core::BlockDevice>> resident_;
  std::uint64_t uploaded_bytes_ = 0;
  std::uint64_t uploads_ = 0;
  bool first_search_ = true;
};

[[nodiscard]] CoarseReport cuda_blastp_search(
    std::span<const std::uint8_t> query, const bio::SequenceDatabase& db,
    const CoarseConfig& config);

[[nodiscard]] CoarseReport gpu_blastp_search(
    std::span<const std::uint8_t> query, const bio::SequenceDatabase& db,
    const CoarseConfig& config);

}  // namespace repro::baselines
