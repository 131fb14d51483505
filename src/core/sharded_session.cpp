#include "core/sharded_session.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/errors.hpp"
#include "core/prefilter.hpp"
#include "core/query_context.hpp"
#include "core/session_detail.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::core {

using detail::QueryRun;

ShardedSession::ShardedSession(Config config, const bio::SequenceDatabase& db)
    : config_(normalized_config(std::move(config))), db_(&db) {
  check_search_limits({}, db);
  const auto split = db.split_blocks(config_.db_blocks);
  const std::size_t num_blocks = split.size();
  std::size_t k = config_.shards;
  if (k < 1) k = 1;
  if (k > num_blocks) k = num_blocks;
  config_.shards = k;

  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t first = s * num_blocks / k;
    const std::size_t last = (s + 1) * num_blocks / k;
    shards_.push_back(std::make_unique<EngineShard>(
        config_, db, s, first,
        std::vector<std::pair<std::size_t, std::size_t>>(
            split.begin() + static_cast<std::ptrdiff_t>(first),
            split.begin() + static_cast<std::ptrdiff_t>(last))));
  }

  if (config_.svccheck || util::svc::svccheck_env_enabled())
    util::svc::set_svccheck_enabled(true);
  pool_ = std::make_unique<util::ThreadPool>(k, "shard");
  session_generation_ = simt::begin_device_generation();
  profiler_.set_device(shards_[0]->engine().spec());
}

std::uint64_t ShardedSession::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->resident_bytes();
  return total;
}

std::uint64_t ShardedSession::block_uploads() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->block_uploads();
  return total;
}

std::uint64_t ShardedSession::db_device_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->db_device_bytes();
  return total;
}

std::uint64_t ShardedSession::leak_check(simt::HazardReport& sink) const {
  return simt::device_leak_check(sink, session_generation_);
}

void ShardedSession::export_profile() const {
  detail::export_profile_if_configured(config_, profiler_);
}

void ShardedSession::run_query(std::span<const std::uint8_t> query,
                               QueryRun& run, std::size_t query_index) {
  run.query_index = query_index;
  run.fires_before = util::FaultInjector::instance().total_fires();
  run.cancel.throw_if_stopped("query.start");

  // --- stage 1: query preparation, once for the whole fleet --------------
  // The explicit aggregate search space makes the calculator (and with it
  // every cutoff, e-value, and the pre-filter threshold) identical on
  // every shard — and identical to the K=1 calculator, whose defaults are
  // these same whole-database totals.
  {
    util::Timer prep_timer;
    util::TraceSpan prep_span("query_prep", "core");
    run.ctx.emplace(query, *db_, config_,
                    bio::SearchSpace{db_->total_residues(), db_->size()});
    prep_span.end();
    run.prep_s = prep_timer.seconds();
  }

  run.report.prefilter_mode = config_.prefilter;
  if (config_.prefilter != PrefilterMode::kOff)
    run.report.prefilter_threshold =
        prefilter_threshold_for(config_, run.ctx->evalue);

  // --- scatter: the GPU half of the query on every shard ------------------
  // Only the device-side half fans out. The CPU half (gapped extension,
  // traceback) runs serially on the gathering thread below: the host CPU
  // is one shared resource however many modeled GPUs the fleet has, and
  // the per-task costs it measures feed the pipeline model — measuring
  // them under K-way self-contention would inflate every modeled makespan
  // (DESIGN.md §17).
  const std::size_t k = shards_.size();
  std::vector<std::optional<ShardGpuResult>> gathered(k);

  auto shard_task = [&](std::size_t s) {
    // Worker-side svccheck coverage scope: this thread owns the GPU
    // block-granularity cancellation checkpoints for its shard.
    util::svc::CheckpointScope worker_scope;
    run.cancel.throw_if_stopped("shard.dispatch");
    EngineShard& shard = *shards_[s];

    util::TraceSpan shard_span;
    if (util::trace_enabled()) {
      shard_span.open("search.shard " + std::to_string(s), "core");
      shard_span.arg("shard", static_cast<std::uint64_t>(s));
      shard_span.arg("first_block",
                     static_cast<std::uint64_t>(shard.first_block()));
      shard_span.arg("blocks", static_cast<std::uint64_t>(shard.num_blocks()));
    }

    ShardGpuResult out = shard.run_gpu_blocks(*run.ctx, run.cancel);

    // Worker-side checkpoint-coverage contract (this thread's scope).
    if (util::svc::svccheck_enabled())
      detail::append_checkpoint_gaps(
          worker_scope, detail::kShardWorkerCheckpoints,
          detail::kShardWorkerPerBlockCheckpoints, shard.num_blocks() > 0,
          out.hazards);

    // Publish under the gather lock: the slot indices are disjoint, but
    // the named lock keeps the scatter/gather handoff visible to the
    // svccheck lock-order analyzer (and to TSan).
    std::lock_guard gather_lock(gather_mu_);
    gathered[s] = std::move(out);
  };

  // With a fault schedule installed the scatter is serialized: the global
  // launch/fault-point ordering then matches the K=1 path exactly, so
  // launch-indexed schedules hit the same block at every fleet size (a
  // deterministic-degradation requirement; DESIGN.md §17). Fault-free
  // queries scatter across the fleet pool.
  if (util::FaultInjector::instance().enabled()) {
    for (std::size_t s = 0; s < k; ++s) shard_task(s);
  } else {
    pool_->run_shards(k, shard_task, run.cancel.root_flag());
  }

  // --- gather, in shard order = global block order -------------------------
  run.cancel.throw_if_stopped("shard.gather");
  {
    std::lock_guard gather_lock(gather_mu_);
    for (std::size_t s = 0; s < k; ++s)
      if (!gathered[s].has_value())
        throw SearchError(SearchErrorCode::kWorkerFailed,
                          "shard " + std::to_string(s) +
                              " produced no result after scatter");
  }

  SearchReport& report = run.report;
  auto& counters = report.result.counters;
  simt::ProfileRegistry merged_profile;
  for (std::size_t s = 0; s < k; ++s) {
    ShardGpuResult& gpu = *gathered[s];
    run.shards.push_back(summarize_shard(s, shards_[s]->first_block(), gpu));

    report.bin_overflow_retries += gpu.bin_overflow_retries;
    report.cache_off_retries += gpu.cache_off_retries;
    report.degraded_blocks += gpu.degraded_blocks;
    report.prefilter_sequences += gpu.prefilter_sequences;
    report.prefilter_survivors += gpu.prefilter_survivors;
    report.prefilter_degraded_blocks += gpu.prefilter_degraded_blocks;
    counters.hits_detected += gpu.hits_detected;
    counters.hits_after_filter += gpu.hits_after_filter;
    counters.ungapped_extensions += gpu.ungapped_extensions;
    counters.words_scanned += gpu.words_scanned;

    report.retry_counts.insert(report.retry_counts.end(),
                               gpu.retry_counts.begin(),
                               gpu.retry_counts.end());
    report.block_backends.insert(report.block_backends.end(),
                                 gpu.block_backends.begin(),
                                 gpu.block_backends.end());
    run.block_fallback_s.insert(run.block_fallback_s.end(),
                                gpu.block_fallback_s.begin(),
                                gpu.block_fallback_s.end());
    run.block_gpu_ms.insert(run.block_gpu_ms.end(), gpu.block_gpu_ms.begin(),
                            gpu.block_gpu_ms.end());

    for (const auto& [name, stats] : gpu.profile_delta.kernels())
      merged_profile.add(stats);
    run.hazards.merge(gpu.hazards);

    // CPU half of this shard's blocks, serial on the gathering thread in
    // shard (= global block) order — the exact per-block loop, summation
    // order, and uncontended cost measurements of the K=1 path.
    for (std::size_t bi = 0; bi < shards_[s]->num_blocks(); ++bi) {
      run.cancel.throw_if_stopped("cpu_phase.block");
      const std::size_t global_bi = shards_[s]->first_block() + bi;
      util::TraceSpan gapped_span;
      if (util::trace_enabled()) {
        gapped_span.open("gapped_stage", "cpu");
        gapped_span.arg("block", static_cast<std::uint64_t>(global_bi));
        gapped_span.arg("shard", static_cast<std::uint64_t>(s));
      }
      BlockCpuResult stage = run_block_cpu_stage(
          *run.ctx, *db_, gpu.block_extensions[bi], config_);
      if (gapped_span.active()) {
        gapped_span.arg(
            "gapped_tasks",
            static_cast<std::uint64_t>(stage.gapped_schedule.size()));
        gapped_span.arg(
            "traceback_tasks",
            static_cast<std::uint64_t>(stage.traceback_schedule.size()));
      }
      run.cpu.gapped_s += stage.gapped_makespan_seconds;
      run.cpu.traceback_s += stage.traceback_makespan_seconds;
      run.cpu.gapped_extensions += stage.gapped_extensions;
      run.cpu.tracebacks += stage.tracebacks;
      run.cpu.dp_cells += stage.dp_cells;

      ModeledBlock modeled;
      modeled.query_index = run.query_index;
      modeled.block_index = global_bi;
      modeled.gpu_s = gpu.block_gpu_ms[bi] / 1e3;
      modeled.cpu_s = stage.gapped_makespan_seconds +
                      stage.traceback_makespan_seconds +
                      gpu.block_fallback_s[bi];
      modeled.fallback_s = gpu.block_fallback_s[bi];
      modeled.gapped_schedule = std::move(stage.gapped_schedule);
      modeled.traceback_schedule = std::move(stage.traceback_schedule);
      run.cpu.modeled.push_back(std::move(modeled));

      run.cpu.alignments.insert(
          run.cpu.alignments.end(),
          std::make_move_iterator(stage.alignments.begin()),
          std::make_move_iterator(stage.alignments.end()));
    }
  }
  run.profile_delta = std::move(merged_profile);

  // --- stage 5: finalization over the merged fleet-wide alignments --------
  run.cancel.throw_if_stopped("finalize");
  run.cpu.finalize_s = run_finalize(run.cpu.alignments, *run.ctx, config_);
  run.wall_seconds = run.wall.seconds();
}

SearchReport ShardedSession::search(std::span<const std::uint8_t> query,
                                    const CancellationToken& cancel) {
  check_search_limits(query, *db_);
  util::svc::CheckpointScope checkpoints;
  const std::uint64_t query_generation = simt::begin_device_generation();
  cancel.throw_if_stopped("search.entry");

  std::optional<util::FaultScope> fault_scope;
  if (!config_.fault_schedule.empty())
    fault_scope.emplace(config_.fault_schedule,
                        config_.fault_seed != 0 ? config_.fault_seed
                                                : util::default_fault_seed());

  const std::string trace_path =
      detail::path_or_env(config_.trace_path, "REPRO_TRACE");
  std::optional<util::TraceSession> trace_session;
  if (!trace_path.empty()) trace_session.emplace(trace_path);

  SearchReport report;
  {
    QueryRun run;
    run.cancel = cancel;
    util::TraceSpan search_span("cublastp.search", "core");
    if (search_span.active()) {
      search_span.arg("query_length", static_cast<std::uint64_t>(query.size()));
      search_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
      search_span.arg("db_blocks",
                      static_cast<std::uint64_t>(config_.db_blocks));
      search_span.arg("engine_workers", config_.engine_workers);
      search_span.arg("shards", static_cast<std::uint64_t>(shards_.size()));
    }

    run_query(query, run, 0);
    detail::finish_search_report(run, config_, profiler_,
                                 /*emit_modeled_trace=*/true);

    if (search_span.active()) {
      search_span.arg(
          "alignments",
          static_cast<std::uint64_t>(run.report.result.alignments.size()));
      search_span.arg("degraded_blocks", run.report.degraded_blocks);
      search_span.arg("faults_absorbed", run.report.faults_encountered);
    }
    search_span.end();
    report = std::move(run.report);
  }

  if (shards_[0]->engine().simtcheck_enabled())
    simt::device_leak_check(report.hazards, query_generation);
  if (util::svc::svccheck_enabled())
    detail::append_checkpoint_gaps(
        checkpoints, detail::kShardedMainCheckpoints,
        detail::kShardedMainPerBlockCheckpoints,
        /*has_blocks=*/!shards_.empty() && shards_[0]->num_blocks() > 0,
        report.hazards);

  detail::export_metrics_if_configured(config_);
  export_profile();
  return report;
}

BatchReport ShardedSession::search_batch(
    std::span<const std::span<const std::uint8_t>> queries) {
  BatchReport batch;
  batch.shards = shards_.size();
  if (queries.empty()) return batch;
  for (const auto& query : queries) check_search_limits(query, *db_);
  const std::uint64_t batch_generation = simt::begin_device_generation();

  std::optional<util::FaultScope> fault_scope;
  if (!config_.fault_schedule.empty())
    fault_scope.emplace(config_.fault_schedule,
                        config_.fault_seed != 0 ? config_.fault_seed
                                                : util::default_fault_seed());

  const std::string trace_path =
      detail::path_or_env(config_.trace_path, "REPRO_TRACE");
  std::optional<util::TraceSession> trace_session;
  if (!trace_path.empty()) trace_session.emplace(trace_path);

  const std::uint64_t uploads_before = block_uploads();
  const std::uint64_t bytes_before = resident_bytes();

  util::Timer batch_timer;
  util::TraceSpan batch_span("cublastp.search_batch", "core");
  if (batch_span.active()) {
    batch_span.arg("queries", static_cast<std::uint64_t>(queries.size()));
    batch_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
    batch_span.arg("db_blocks", static_cast<std::uint64_t>(config_.db_blocks));
    batch_span.arg("shards", static_cast<std::uint64_t>(shards_.size()));
  }

  // Queries run in input order, each scattered across the whole fleet (the
  // fleet's parallelism is across shards, not across queries, so per-query
  // reports stay bit-identical to sequential search() calls). The modeled
  // fleet makespan below is the slowest shard's cross-query Fig. 12 walk.
  std::vector<std::vector<ModeledQuery>> shard_modeled(
      shards_.size(), std::vector<ModeledQuery>(queries.size()));
  {
    std::vector<std::unique_ptr<QueryRun>> runs(queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      runs[qi] = std::make_unique<QueryRun>();
      util::TraceSpan query_span;
      if (util::trace_enabled()) {
        query_span.open("batch.query " + std::to_string(qi), "core");
        query_span.arg("query_length",
                       static_cast<std::uint64_t>(queries[qi].size()));
      }
      run_query(queries[qi], *runs[qi], qi);
      detail::finish_search_report(*runs[qi], config_, profiler_,
                                   /*emit_modeled_trace=*/false);

      // Re-partition the global modeled-block list back into per-shard
      // lists (contiguous global block ranges) for the fleet walk.
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        ModeledQuery& mq = shard_modeled[s][qi];
        mq.prep_s = runs[qi]->prep_s;
        mq.finalize_s = runs[qi]->cpu.finalize_s;
        const std::size_t first = shards_[s]->first_block();
        const std::size_t end = first + shards_[s]->num_blocks();
        for (ModeledBlock& block : runs[qi]->cpu.modeled)
          if (block.block_index >= first && block.block_index < end)
            mq.blocks.push_back(std::move(block));
      }

      batch.per_query_wall_seconds.push_back(runs[qi]->wall_seconds);
      batch.prefilter_sequences += runs[qi]->report.prefilter_sequences;
      batch.prefilter_survivors += runs[qi]->report.prefilter_survivors;
      batch.reports.push_back(std::move(runs[qi]->report));
    }
    runs.clear();
  }
  if (shards_[0]->engine().simtcheck_enabled())
    simt::device_leak_check(batch.reports[0].hazards, batch_generation);

  batch.batch_wall_seconds = batch_timer.seconds();
  batch.h2d_block_uploads = block_uploads() - uploads_before;
  batch.h2d_block_bytes = resident_bytes() - bytes_before;
  batch.db_device_bytes = db_device_bytes();

  // Modeled fleet makespan: every shard walks its own cross-query pipeline
  // (its GPU chain + its CPU resource) concurrently; the batch finishes
  // when the slowest shard does.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const double shard_makespan =
        walk_batch_pipeline(shard_modeled[s], config_.cpu_threads);
    if (shard_makespan > batch.modeled_batch_seconds)
      batch.modeled_batch_seconds = shard_makespan;
  }

  // Sequential baseline: N one-shot single-engine sessions, exactly as
  // SearchSession models it (full database upload per query on one link).
  double full_upload_ms = 0.0;
  const simt::Engine& cost_engine = shards_[0]->engine();
  for (const auto& shard : shards_) {
    for (std::size_t bi = 0; bi < shard->num_blocks(); ++bi) {
      const auto [begin, end] = shard->block_range(bi);
      const std::uint64_t block_bytes =
          db_->offsets()[end] - db_->offsets()[begin] +
          (end - begin + 1) * sizeof(std::uint32_t);
      full_upload_ms +=
          cost_engine.cost_model().transfer_ms(cost_engine.spec(), block_bytes);
    }
  }
  for (const auto& report : batch.reports)
    batch.modeled_sequential_seconds +=
        report.overlapped_total_seconds +
        (full_upload_ms - detail::kernel_ms(report.profile, "h2d_block")) / 1e3;

  if (batch_span.active()) {
    batch_span.arg("h2d_block_bytes", batch.h2d_block_bytes);
    batch_span.arg("modeled_batch_seconds", batch.modeled_batch_seconds);
    batch_span.arg("modeled_sequential_seconds",
                   batch.modeled_sequential_seconds);
  }
  batch_span.end();

  auto& registry = util::metrics::Registry::instance();
  registry.counter("core.batches").add(1);
  registry.counter("core.batch_queries").add(queries.size());
  registry.histogram("core.batch_wall_seconds")
      .observe(batch.batch_wall_seconds);
  detail::export_metrics_if_configured(config_);
  export_profile();
  return batch;
}

BatchReport ShardedSession::search_all_vs_all(std::size_t limit) {
  std::size_t count = db_->size();
  if (limit != 0 && limit < count) count = limit;
  std::vector<std::span<const std::uint8_t>> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) queries.push_back(db_->residues(i));
  return search_batch(queries);
}

}  // namespace repro::core
