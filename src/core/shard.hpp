// EngineShard: one modeled GPU's worth of the search fleet (DESIGN.md §17).
//
// A shard owns the per-device state of one modeled GPU — a simt::Engine,
// the device residency of its contiguous database-block slice, and the bin
// grid every block attempt re-arms — and runs the GPU half of a query over
// its blocks: the h2d_query upload, then every owned block through the
// degradation ladder. It holds no query-global state: cutoffs come from
// the QueryContext the session built over the whole database, which is
// what makes K shards' merged results bit-identical to one engine's. A
// core::SearchSession owns K of them (K=1 by default) and runs them in
// shard order on its calling thread.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bio/database.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/cublastp.hpp"
#include "core/pipeline.hpp"
#include "simt/engine.hpp"

namespace repro::core {

/// Everything one shard's GPU half contributes to a query: per-block
/// outputs indexed by *local* block (0 = the shard's first block; global
/// index = first_block() + local), plus shard-total counters and the
/// shard-engine profile/hazard deltas. Concatenating these in shard order
/// reproduces the single-engine per-block sequence exactly.
struct ShardGpuResult {
  std::vector<std::vector<blast::UngappedExtension>> block_extensions;
  std::vector<std::uint32_t> retry_counts;  ///< failed attempts per block
  std::vector<double> block_fallback_s;
  std::vector<double> block_gpu_ms;

  std::uint64_t bin_overflow_retries = 0;
  std::uint64_t cache_off_retries = 0;
  std::uint64_t degraded_blocks = 0;

  std::uint64_t hits_detected = 0;
  std::uint64_t hits_after_filter = 0;
  std::uint64_t ungapped_extensions = 0;
  std::uint64_t words_scanned = 0;

  simt::ProfileRegistry profile_delta;  ///< this query's launches, this shard
  simt::HazardReport hazards;           ///< simtcheck findings, this shard
};

/// The report's per-shard section for one finished GPU half.
[[nodiscard]] ShardSummary summarize_shard(std::size_t shard_index,
                                           std::size_t first_block,
                                           const ShardGpuResult& gpu);

class EngineShard {
 public:
  /// `block_ranges` are [first_seq, end_seq) pairs from the database's
  /// block split — the contiguous slice this shard owns, starting at
  /// global block index `first_block`. Sequence indices stay global, so
  /// extensions and alignments carry fleet-wide identities. The referenced
  /// config and database must outlive the shard.
  EngineShard(const Config& config, const bio::SequenceDatabase& db,
              std::size_t shard_index, std::size_t first_block,
              std::vector<std::pair<std::size_t, std::size_t>> block_ranges);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// The GPU half of one query over this shard's blocks: query upload,
  /// then every owned block through the degradation ladder with the
  /// per-shard bin-capacity adaptation. Polls `cancel` at block boundaries
  /// and installs its root flag on the engine for launch-level
  /// cancellation. One query at a time.
  [[nodiscard]] ShardGpuResult run_gpu_blocks(const QueryContext& ctx,
                                              const CancellationToken& cancel);

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] std::size_t first_block() const { return first_block_; }
  [[nodiscard]] std::size_t num_blocks() const {
    return residency_.num_blocks();
  }
  [[nodiscard]] const std::pair<std::size_t, std::size_t>& block_range(
      std::size_t local_bi) const {
    return residency_.range(local_bi);
  }

  [[nodiscard]] simt::Engine& engine() { return engine_; }
  [[nodiscard]] const simt::Engine& engine() const { return engine_; }

  /// h2d_block bytes this shard has uploaded so far.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return residency_.uploaded_bytes();
  }
  [[nodiscard]] std::uint64_t block_uploads() const {
    return residency_.uploads();
  }
  /// Size of this shard's full device image (residues + offsets), whether
  /// or not it is resident yet.
  [[nodiscard]] std::uint64_t db_device_bytes() const;

  /// The session-resident bin grid; null until a block attempt allocates
  /// it (the first search, or after a failed allocation).
  [[nodiscard]] const BinGrid* bin_grid() const {
    return bin_grid_.has_value() ? &*bin_grid_ : nullptr;
  }

 private:
  const Config* config_;
  const bio::SequenceDatabase* db_;
  std::size_t index_;
  std::size_t first_block_;
  simt::Engine engine_;
  BlockResidency residency_;
  std::optional<BinGrid> bin_grid_;
};

}  // namespace repro::core
