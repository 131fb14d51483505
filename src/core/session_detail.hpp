// Internals shared by the two session front-ends (DESIGN.md §12/§17):
// core::SearchSession (one engine) and core::ShardedSession (a scatter–
// gather fleet of core::EngineShard units). Both assemble the same
// SearchReport from the same per-query state, so the report mapping, the
// metrics recording, and the svccheck checkpoint-coverage contract live
// here exactly once — the sharded merge can never drift from the
// single-engine path it must stay bit-identical to.
//
// Not part of the public core API: include only from core/*.cpp.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/cublastp.hpp"
#include "core/pipeline.hpp"
#include "core/query_context.hpp"
#include "simt/simtprof.hpp"
#include "util/svccheck.hpp"
#include "util/timer.hpp"

namespace repro::core::detail {

/// Modeled GPU time accumulated in `registry` for one kernel name (ms).
[[nodiscard]] double kernel_ms(const simt::ProfileRegistry& registry,
                               const char* name);

// The cancellation checkpoints a successful search must poll (svccheck
// coverage contract; DESIGN.md §15/§17). Coverage scopes are per thread:
// the single-engine search polls everything on the session thread, while a
// sharded search splits the sets between the gathering main thread (which
// also runs the serial CPU half, so it owns the cpu_phase checkpoints) and
// the per-shard workers (which own the GPU-block checkpoints).
inline constexpr const char* kSearchAlwaysCheckpoints[] = {
    "search.entry", "query.start", "finalize"};
inline constexpr const char* kSearchPerBlockCheckpoints[] = {
    "gpu_phase.block", "block_ladder.entry", "cpu_phase.block"};
inline constexpr const char* kShardedMainCheckpoints[] = {
    "search.entry", "query.start", "shard.gather", "finalize"};
inline constexpr const char* kShardedMainPerBlockCheckpoints[] = {
    "cpu_phase.block"};
inline constexpr const char* kShardWorkerCheckpoints[] = {"shard.dispatch"};
inline constexpr const char* kShardWorkerPerBlockCheckpoints[] = {
    "gpu_phase.block", "block_ladder.entry"};

/// Appends a kCheckpointGap hazard for every required checkpoint the scope
/// never saw polled: every name in `always`, plus every name in
/// `per_block` when `has_blocks`.
void append_checkpoint_gaps(const util::svc::CheckpointScope& scope,
                            std::span<const char* const> always,
                            std::span<const char* const> per_block,
                            bool has_blocks, simt::HazardReport& sink);

/// Config::trace_path / Config::metrics_path / Config::profile_path fall
/// back to the matching environment toggle when unset.
[[nodiscard]] std::string path_or_env(const std::string& configured,
                                      const char* env_name);

/// Everything one in-flight query carries between its GPU half and its CPU
/// half — filled by SearchSession on the session thread, or merged from
/// per-shard results by ShardedSession's gather step.
struct QueryRun {
  std::size_t query_index = 0;
  util::Timer wall;  ///< starts when the run is created (GPU-phase entry)
  double wall_seconds = 0.0;  ///< set when the CPU half completes

  /// Cooperative stop token, polled at every stage boundary. Empty for
  /// token-less searches and the whole batch path.
  CancellationToken cancel;

  std::optional<QueryContext> ctx;
  SearchReport report;

  // Snapshots for per-query attribution against the shared engine(s).
  simt::ProfileRegistry profile_before;
  simt::ProfileRegistry profile_delta;  ///< taken when the GPU half ends
  simt::HazardReport hazards;
  std::uint64_t fires_before = 0;

  double prep_s = 0.0;
  std::vector<std::vector<blast::UngappedExtension>> block_extensions;
  std::vector<double> block_fallback_s;  ///< global block order
  std::vector<double> block_gpu_ms;      ///< global block order

  /// Per-shard summaries for the v4 report (one entry for SearchSession,
  /// K entries in shard order for ShardedSession). Moved into
  /// SearchReport::shards by finish_search_report.
  std::vector<ShardSummary> shards;

  /// CPU-half outputs, reset whole at every run_cpu_phases entry so the
  /// batch path can re-run the stage after an injected worker fault.
  struct CpuOut {
    double gapped_s = 0.0;
    double traceback_s = 0.0;
    double finalize_s = 0.0;
    std::uint64_t gapped_extensions = 0;
    std::uint64_t tracebacks = 0;
    std::uint64_t dp_cells = 0;
    std::vector<blast::Alignment> alignments;
    std::vector<ModeledBlock> modeled;
  } cpu;
};

/// Assembles the SearchReport (profile delta, pipeline walk, timings,
/// metrics, continuous-profiler fold-in) from a query whose two halves
/// have both finished. Shared verbatim by both session front-ends.
void finish_search_report(QueryRun& run, const Config& config,
                          simt::prof::ContinuousProfiler& profiler,
                          bool emit_modeled_trace);

/// Writes the process metrics registry to Config::metrics_path (or
/// REPRO_METRICS); no-op when neither is set.
void export_metrics_if_configured(const Config& config);

/// Writes the profiler's cumulative JSON to Config::profile_path (or
/// REPRO_PROFILE); no-op when neither is set.
void export_profile_if_configured(const Config& config,
                                  const simt::prof::ContinuousProfiler& prof);

}  // namespace repro::core::detail
