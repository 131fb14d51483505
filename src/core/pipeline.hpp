// The staged cuBLASTP search pipeline (DESIGN.md §12).
//
// CuBlastp::search used to be one ~550-line monolith; these are its stages,
// each with a narrow interface so they are individually testable and can be
// scheduled independently of one another:
//
//   stage 1  query preparation            query_context.hpp
//   stage 2  database residency (H2D)     BlockResidency — upload once
//   stage 3  per-block GPU attempt with   run_block_ladder (rungs: GPU,
//            the degradation ladder        GPU w/ cache off, CPU fallback)
//   stage 4  CPU gapped + traceback       run_block_cpu_stage
//   stage 5  finalize (rank, e-values)    run_finalize
//   model    Fig. 12 overlap walk         walk_pipeline / walk_batch_pipeline
//
// A SearchSession (search_session.hpp) owns the long-lived state (engine
// shards, residency) and threads the stages together; the stages themselves
// hold no hidden state beyond what their signatures say.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bio/database.hpp"
#include "blast/results.hpp"
#include "blast/types.hpp"
#include "core/bins.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/device_data.hpp"
#include "core/errors.hpp"
#include "core/kernels.hpp"
#include "core/query_context.hpp"
#include "simt/engine.hpp"
#include "util/makespan.hpp"

namespace repro::core {

/// Validates and normalizes a Config the way every entry point must:
/// throws std::invalid_argument for contract violations (bins not a power
/// of two) and clamps zero/negative tunables to their minimums.
[[nodiscard]] Config normalized_config(Config config);

/// Stage 2: device residency of the database blocks, owned by a session.
/// Each block is uploaded at most once — lazily, inside the first search
/// that touches it, so the `h2d_block` transfer lands in that search's
/// trace/profile — and the device image is reused by every later search.
/// A failed upload (injected alloc/transfer fault) leaves the block
/// non-resident so the next attempt retries the transfer.
class BlockResidency {
 public:
  BlockResidency(const bio::SequenceDatabase& db,
                 std::vector<std::pair<std::size_t, std::size_t>> blocks);

  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }
  [[nodiscard]] const std::pair<std::size_t, std::size_t>& range(
      std::size_t bi) const {
    return blocks_[bi];
  }

  /// Returns the device image of block `bi`, uploading it first if this is
  /// the first use. Throws std::bad_alloc / simt::DeviceError /
  /// util::FaultInjectedError on (injected) allocation or transfer
  /// failures.
  const BlockDevice& ensure(simt::Engine& engine, std::size_t bi);

  /// Total `h2d_block` bytes this residency has transferred. After any
  /// fault-free search the value equals the database image size and never
  /// grows again — the amortization a session exists to provide.
  [[nodiscard]] std::uint64_t uploaded_bytes() const {
    return uploaded_bytes_;
  }
  /// Uploads performed (fault-free: exactly one per block per session).
  [[nodiscard]] std::uint64_t uploads() const { return uploads_; }

 private:
  const bio::SequenceDatabase* db_;
  std::vector<std::pair<std::size_t, std::size_t>> blocks_;
  std::vector<std::optional<BlockDevice>> resident_;
  std::uint64_t uploaded_bytes_ = 0;
  std::uint64_t uploads_ = 0;
};

/// Everything one database block contributes to the report, whichever rung
/// of the ladder produced it.
struct BlockOutcome {
  std::vector<blast::UngappedExtension> extensions;  ///< global seq indices
  std::uint64_t hits_detected = 0;
  std::uint64_t hits_after_filter = 0;
  std::uint64_t ungapped_extensions = 0;
  double cpu_fallback_seconds = 0.0;  ///< thread CPU seconds of rung 3
};

/// One GPU attempt at a block: K1 with bounded capacity growth, then K3-K5
/// and the D2H copy, against an already-resident device block. K1 bins
/// into `bin_grid`, which the caller keeps across attempts: the grid is
/// re-armed when it has room for `bin_capacity`, else (first use, or an
/// overflow grew the capacity past it) freed and allocated anew,
/// session-resident. A failed grid allocation leaves `bin_grid` empty.
/// Throws simt::DeviceError / std::bad_alloc / util::FaultInjectedError on
/// device failures, and SearchError with kBinOverflowExhausted when
/// capacity growth hits its retry or size caps.
[[nodiscard]] BlockOutcome run_block_on_gpu(simt::Engine& engine,
                                            const Config& config,
                                            const QueryDevice& query,
                                            const BlockDevice& block,
                                            std::optional<BinGrid>& bin_grid,
                                            std::uint32_t& bin_capacity,
                                            std::uint64_t& overflow_retries);

/// The last rung of the ladder: the block's critical phases on the host,
/// via the same scalar routines the FSA-BLAST baseline runs. Produces the
/// same qualifying-extension set as the fine-grained kernels (the
/// reproduction's §4.3 correctness anchor).
[[nodiscard]] BlockOutcome run_block_on_cpu(const blast::WordLookup& lookup,
                                            const bio::Pssm& pssm,
                                            const bio::SequenceDatabase& db,
                                            std::size_t begin, std::size_t end,
                                            std::size_t query_length,
                                            const blast::SearchParams& params);

/// Stage 3 result: the block outcome plus what the ladder did to get it.
struct BlockLadderResult {
  BlockOutcome outcome;
  std::uint32_t failed_attempts = 0;  ///< GPU rungs that failed (0..2)
  bool cache_off_retry = false;       ///< rung 2 was attempted
  bool degraded = false;              ///< rung 3 (CPU fallback) served it
  std::uint64_t words_scanned = 0;    ///< word positions in the block
};

/// Stage 3: one database block through the full degradation ladder —
/// rung 1 the fine-grained GPU pipeline, rung 2 one more GPU attempt with
/// the read-only cache disabled, rung 3 the CPU fallback (DESIGN.md §9).
/// Both GPU rungs bin into the grid of `bin_grid` (run_block_on_gpu).
/// Every rung produces the same extension set. Restores the engine's cache
/// setting to `config.use_readonly_cache` before returning (also when the
/// ladder unwinds). Throws SearchError{kDegradationExhausted} when all
/// three rungs fail.
///
/// `cancel` (empty by default) is polled at the ladder's internal stage
/// boundaries — entry, between GPU rungs, and before the CPU fallback — so
/// a cancelled or expired request aborts between attempts with
/// SearchError{kCancelled}/{kDeadlineExceeded} instead of grinding through
/// retries it no longer wants.
[[nodiscard]] BlockLadderResult run_block_ladder(
    simt::Engine& engine, const Config& config, const QueryContext& ctx,
    const bio::SequenceDatabase& db, BlockResidency& residency,
    std::size_t bi, std::optional<BinGrid>& bin_grid,
    std::uint32_t& bin_capacity,
    std::uint64_t& overflow_retries, const CancellationToken& cancel = {});

/// Stage 4 result for one block: gapped/traceback work, modeled makespans,
/// and (while tracing) the greedy schedule placements the modeled Fig. 12
/// timeline draws.
struct BlockCpuResult {
  std::vector<blast::Alignment> alignments;  ///< unranked, no e-values yet
  double gapped_makespan_seconds = 0.0;
  double traceback_makespan_seconds = 0.0;
  std::uint64_t gapped_extensions = 0;
  std::uint64_t tracebacks = 0;
  std::uint64_t dp_cells = 0;
  std::vector<util::ScheduledTask> gapped_schedule;
  std::vector<util::ScheduledTask> traceback_schedule;
};

/// Stage 4: gapped extension + traceback for one block's qualifying
/// ungapped extensions. Pure with respect to the engine and the session —
/// it reads only the query context and the host database — so the Fig. 12
/// model may overlap it with other blocks' and other queries' GPU stages.
[[nodiscard]] BlockCpuResult run_block_cpu_stage(
    const QueryContext& ctx, const bio::SequenceDatabase& db,
    std::span<const blast::UngappedExtension> extensions,
    const Config& config);

/// Stage 5: merges per-block alignments, attaches e-values/bit scores,
/// filters and ranks. Returns the thread CPU seconds spent.
double run_finalize(std::vector<blast::Alignment>& alignments,
                    const QueryContext& ctx, const Config& config);

// ---------------------------------------------------------------------------
// Pipeline model (paper Fig. 12), generalized across queries.
// ---------------------------------------------------------------------------

/// One database block on the modeled timeline.
struct ModeledBlock {
  std::size_t query_index = 0;
  std::size_t block_index = 0;
  double gpu_s = 0.0;       ///< H2D + kernels + D2H chain for this block
  double cpu_s = 0.0;       ///< gapped + traceback makespans + fallback
  double fallback_s = 0.0;  ///< CPU-fallback part of cpu_s (rung 3)
  // Greedy-schedule placements, kept only while tracing so the modeled
  // Fig. 12 timeline can draw per-worker spans.
  std::vector<util::ScheduledTask> gapped_schedule;
  std::vector<util::ScheduledTask> traceback_schedule;
};

struct PipelineTotals {
  double overlapped_s = 0.0;  ///< makespan of the two-resource walk
  double serial_s = 0.0;      ///< sum of every phase (no overlap)
};

/// Single-query Fig. 12 walk: the GPU/PCIe chain processes blocks in
/// order; the CPU phases of block i start when both its GPU chain and the
/// CPU phases of block i-1 are done. While tracing (and `emit_modeled` is
/// set — batch reports pass false and emit the cross-query walk instead),
/// the walk is emitted as the synthetic "modeled pipeline" process of the
/// trace.
[[nodiscard]] PipelineTotals walk_pipeline(std::span<const ModeledBlock> blocks,
                                           std::size_t cpu_threads,
                                           bool emit_modeled = true);

/// One query's contribution to the batch walk.
struct ModeledQuery {
  double prep_s = 0.0;      ///< query preparation (CPU, gates the GPU chain)
  double finalize_s = 0.0;  ///< result finalization (CPU)
  std::vector<ModeledBlock> blocks;
};

/// Cross-query generalization of the Fig. 12 walk (DESIGN.md §12): one GPU
/// chain and one CPU resource shared by every query, so query q+1's GPU
/// blocks run while query q's CPU phases drain — the paper's intra-query
/// overlap applied across a batch. Reduces to prep + walk_pipeline +
/// finalize for a single query. While tracing, the batch walk is emitted
/// as the modeled-pipeline process. Returns the batch makespan in seconds.
[[nodiscard]] double walk_batch_pipeline(std::span<const ModeledQuery> queries,
                                         std::size_t cpu_threads);

}  // namespace repro::core
