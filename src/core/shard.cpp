#include "core/shard.hpp"

#include <string>
#include <utility>

#include "util/trace.hpp"

namespace repro::core {

ShardSummary summarize_shard(std::size_t shard_index, std::size_t first_block,
                             const ShardGpuResult& gpu) {
  ShardSummary summary;
  summary.shard = static_cast<std::uint32_t>(shard_index);
  summary.first_block = static_cast<std::uint32_t>(first_block);
  summary.num_blocks = static_cast<std::uint32_t>(gpu.retry_counts.size());
  for (const std::uint32_t attempts : gpu.retry_counts)
    summary.retry_attempts += attempts;
  summary.degraded_blocks = gpu.degraded_blocks;
  summary.cache_off_retries = gpu.cache_off_retries;
  summary.bin_overflow_retries = gpu.bin_overflow_retries;
  summary.kernel_ms = gpu.profile_delta.total_time_ms();
  return summary;
}

EngineShard::EngineShard(
    const Config& config, const bio::SequenceDatabase& db,
    std::size_t shard_index, std::size_t first_block,
    std::vector<std::pair<std::size_t, std::size_t>> block_ranges)
    : config_(&config),
      db_(&db),
      index_(shard_index),
      first_block_(first_block),
      residency_(db, std::move(block_ranges)) {
  engine_.set_readonly_cache_enabled(config.use_readonly_cache);
  engine_.set_workers(config.engine_workers);
  if (config.simtcheck) engine_.set_simtcheck_enabled(true);
}

std::uint64_t EngineShard::db_device_bytes() const {
  // Mirrors BlockDevice::h2d_bytes without staging anything: each block's
  // residues plus its (num_seqs + 1) 32-bit offsets.
  std::uint64_t bytes = 0;
  for (std::size_t bi = 0; bi < residency_.num_blocks(); ++bi) {
    const auto [begin, end] = residency_.range(bi);
    bytes += db_->offsets()[end] - db_->offsets()[begin];
    bytes += (end - begin + 1) * sizeof(std::uint32_t);
  }
  return bytes;
}

ShardGpuResult EngineShard::run_gpu_blocks(const QueryContext& ctx,
                                           const CancellationToken& cancel) {
  ShardGpuResult out;
  const simt::ProfileRegistry profile_before = engine_.profile();
  engine_.clear_hazards();

  // Install the request's root cancel flag on the engine for the duration
  // of the GPU half: an in-flight launch then skips its remaining shards
  // once the client cancels, instead of running them to completion before
  // the next checkpoint can abort. Cleared on every exit path (a null flag
  // changes nothing for token-less queries).
  engine_.set_cancel_flag(cancel.root_flag());
  struct FlagClear {
    simt::Engine& engine;
    ~FlagClear() { engine.set_cancel_flag(nullptr); }
  } flag_clear{engine_};

  engine_.transfer("h2d_query", ctx.device.h2d_bytes());

  const std::size_t num_blocks = residency_.num_blocks();

  out.retry_counts.assign(num_blocks, 0);
  out.block_extensions.resize(num_blocks);
  out.block_fallback_s.assign(num_blocks, 0.0);
  out.block_gpu_ms.assign(num_blocks, 0.0);

  // Bin capacity starts from the configured value for every query (growth
  // is a per-search, per-shard adaptation, so session results match
  // one-shot runs and fleet results match single-engine runs).
  std::uint32_t bin_capacity =
      static_cast<std::uint32_t>(config_->bin_capacity);

  // --- residency + the degradation ladder, block by block ----------------
  for (std::size_t bi = 0; bi < num_blocks; ++bi) {
    cancel.throw_if_stopped("gpu_phase.block");
    const auto [begin, end] = residency_.range(bi);
    util::TraceSpan block_span;
    if (util::trace_enabled()) {
      block_span.open("db_block " + std::to_string(first_block_ + bi),
                      "core");
      block_span.arg("first_seq", static_cast<std::uint64_t>(begin));
      block_span.arg("end_seq", static_cast<std::uint64_t>(end));
      block_span.arg("shard", static_cast<std::uint64_t>(index_));
    }
    const double gpu_ms_before = engine_.profile().total_time_ms();

    BlockLadderResult ladder =
        run_block_ladder(engine_, *config_, ctx, *db_, residency_, bi,
                         bin_grid_, bin_capacity, out.bin_overflow_retries,
                         cancel);

    out.retry_counts[bi] = ladder.failed_attempts;
    if (ladder.cache_off_retry) ++out.cache_off_retries;
    if (ladder.degraded) ++out.degraded_blocks;

    out.hits_detected += ladder.outcome.hits_detected;
    out.hits_after_filter += ladder.outcome.hits_after_filter;
    out.ungapped_extensions += ladder.outcome.ungapped_extensions;
    out.words_scanned += ladder.words_scanned;
    out.block_extensions[bi] = std::move(ladder.outcome.extensions);
    out.block_fallback_s[bi] = ladder.outcome.cpu_fallback_seconds;

    out.block_gpu_ms[bi] = engine_.profile().total_time_ms() - gpu_ms_before;
    if (util::trace_enabled()) {
      util::trace_counter("hits_detected_total",
                          static_cast<double>(out.hits_detected));
      util::trace_counter("hits_after_filter_total",
                          static_cast<double>(out.hits_after_filter));
    }
  }

  // Attribute this query's engine work now: the CPU half never touches the
  // engine, but a later query's kernels may run before this query's report
  // is assembled.
  out.profile_delta = engine_.profile().diff(profile_before);
  out.hazards = engine_.hazards();
  return out;
}

}  // namespace repro::core
