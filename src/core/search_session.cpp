#include "core/search_session.hpp"

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/prefilter.hpp"
#include "core/query_context.hpp"
#include "core/session_detail.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/svccheck.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::core {

using detail::QueryRun;

SearchSession::SearchSession(Config config, const bio::SequenceDatabase& db)
    : config_(normalized_config(std::move(config))),
      db_(&db),
      shard_(config_, db, /*shard_index=*/0, /*first_block=*/0,
             db.split_blocks(config_.db_blocks)) {
  check_search_limits({}, db);
  if (config_.svccheck || util::svc::svccheck_env_enabled())
    util::svc::set_svccheck_enabled(true);
  // Everything allocated from here on belongs to this session for
  // leakcheck purposes; see leak_check().
  session_generation_ = simt::begin_device_generation();
  profiler_.set_device(shard_.engine().spec());
}

std::uint64_t SearchSession::leak_check(simt::HazardReport& sink) const {
  return simt::device_leak_check(sink, session_generation_);
}

void SearchSession::run_gpu_phases(std::span<const std::uint8_t> query,
                                   QueryRun& run, std::size_t query_index) {
  run.query_index = query_index;
  run.fires_before = util::FaultInjector::instance().total_fires();
  run.cancel.throw_if_stopped("query.start");

  // --- stage 1: query preparation (the "Other" phase of Fig. 19d) --------
  {
    util::Timer prep_timer;
    util::TraceSpan prep_span("query_prep", "core");
    run.ctx.emplace(query, *db_, config_);
    prep_span.end();
    run.prep_s = prep_timer.seconds();
  }

  // --- stages 2+3: the shard's GPU half (upload, pre-filter, ladder) -----
  ShardGpuResult gpu = shard_.run_gpu_blocks(*run.ctx, run.cancel);

  run.report.prefilter_mode = config_.prefilter;
  if (config_.prefilter != PrefilterMode::kOff)
    run.report.prefilter_threshold =
        prefilter_threshold_for(config_, run.ctx->evalue);

  run.shards.clear();
  run.shards.push_back(summarize_shard(shard_.index(), shard_.first_block(),
                                       gpu));

  run.report.bin_overflow_retries = gpu.bin_overflow_retries;
  run.report.cache_off_retries = gpu.cache_off_retries;
  run.report.degraded_blocks = gpu.degraded_blocks;
  run.report.prefilter_sequences = gpu.prefilter_sequences;
  run.report.prefilter_survivors = gpu.prefilter_survivors;
  run.report.prefilter_degraded_blocks = gpu.prefilter_degraded_blocks;
  run.report.retry_counts = std::move(gpu.retry_counts);
  run.report.block_backends = std::move(gpu.block_backends);

  auto& counters = run.report.result.counters;
  counters.hits_detected = gpu.hits_detected;
  counters.hits_after_filter = gpu.hits_after_filter;
  counters.ungapped_extensions = gpu.ungapped_extensions;
  counters.words_scanned = gpu.words_scanned;

  run.block_extensions = std::move(gpu.block_extensions);
  run.block_fallback_s = std::move(gpu.block_fallback_s);
  run.block_gpu_ms = std::move(gpu.block_gpu_ms);
  run.profile_delta = std::move(gpu.profile_delta);
  run.hazards = std::move(gpu.hazards);
}

void SearchSession::run_cpu_phases(QueryRun& run) {
  run.cpu = {};
  const std::size_t num_blocks = shard_.num_blocks();

  // --- stage 4: gapped extension + traceback, block by block -------------
  for (std::size_t bi = 0; bi < num_blocks; ++bi) {
    run.cancel.throw_if_stopped("cpu_phase.block");
    util::TraceSpan gapped_span;
    if (util::trace_enabled()) {
      gapped_span.open("gapped_stage", "cpu");
      gapped_span.arg("block", static_cast<std::uint64_t>(bi));
    }
    BlockCpuResult stage = run_block_cpu_stage(
        *run.ctx, *db_, run.block_extensions[bi], config_);
    if (gapped_span.active()) {
      gapped_span.arg("gapped_tasks",
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
    modeled.block_index = bi;
    modeled.gpu_s = run.block_gpu_ms[bi] / 1e3;
    modeled.cpu_s = stage.gapped_makespan_seconds +
                    stage.traceback_makespan_seconds +
                    run.block_fallback_s[bi];
    modeled.fallback_s = run.block_fallback_s[bi];
    modeled.gapped_schedule = std::move(stage.gapped_schedule);
    modeled.traceback_schedule = std::move(stage.traceback_schedule);
    run.cpu.modeled.push_back(std::move(modeled));

    run.cpu.alignments.insert(
        run.cpu.alignments.end(),
        std::make_move_iterator(stage.alignments.begin()),
        std::make_move_iterator(stage.alignments.end()));
  }

  // --- stage 5: finalization ---------------------------------------------
  run.cancel.throw_if_stopped("finalize");
  run.cpu.finalize_s = run_finalize(run.cpu.alignments, *run.ctx, config_);
  run.wall_seconds = run.wall.seconds();
}

SearchReport SearchSession::search(std::span<const std::uint8_t> query,
                                   const CancellationToken& cancel) {
  check_search_limits(query, *db_);
  // svccheck coverage scope: collects every checkpoint this thread polls
  // during the search; gaps against the required stage-boundary set are
  // reported below. The leak floor is this query's own generation, so the
  // resident database and earlier queries' (already-scanned) state never
  // alias into this query's scan.
  util::svc::CheckpointScope checkpoints;
  const std::uint64_t query_generation = simt::begin_device_generation();
  cancel.throw_if_stopped("search.entry");

  std::optional<util::FaultScope> fault_scope;
  if (!config_.fault_schedule.empty())
    fault_scope.emplace(config_.fault_schedule,
                        config_.fault_seed != 0 ? config_.fault_seed
                                                : util::default_fault_seed());

  // Observability session: Config::trace_path, else REPRO_TRACE. If an
  // outer owner (the CLI) already started a session this scope is passive
  // and the outer owner writes the file.
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
    }

    run_gpu_phases(query, run, 0);
    run_cpu_phases(run);
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
  }  // QueryRun dies here: its QueryContext device buffers must all be gone
     // before the leak scan below, or they would read as leaks.

  // leakcheck: any device allocation made during this query and still live
  // now outlived it (the DeviceResidentScope-tagged database image is
  // exempt — outliving queries is its purpose).
  if (shard_.engine().simtcheck_enabled())
    simt::device_leak_check(report.hazards, query_generation);
  // svccheck: assert the stage-boundary checkpoint coverage contract.
  if (util::svc::svccheck_enabled())
    detail::append_checkpoint_gaps(
        checkpoints, detail::kSearchAlwaysCheckpoints,
        detail::kSearchPerBlockCheckpoints, shard_.num_blocks() > 0,
        report.hazards);

  detail::export_metrics_if_configured(config_);
  export_profile();
  return report;
}

BatchReport SearchSession::search_batch(
    std::span<const std::span<const std::uint8_t>> queries) {
  BatchReport batch;
  if (queries.empty()) return batch;
  // Fail fast on any invalid query before any work is scheduled.
  for (const auto& query : queries) check_search_limits(query, *db_);
  // Leakcheck floor for the whole batch (scanned once, after every run's
  // device buffers are destroyed).
  const std::uint64_t batch_generation = simt::begin_device_generation();

  // One fault scope around the whole batch: the schedule's fire counters
  // run across all queries, like one long-lived service would see.
  std::optional<util::FaultScope> fault_scope;
  if (!config_.fault_schedule.empty())
    fault_scope.emplace(config_.fault_schedule,
                        config_.fault_seed != 0 ? config_.fault_seed
                                                : util::default_fault_seed());

  const std::string trace_path =
      detail::path_or_env(config_.trace_path, "REPRO_TRACE");
  std::optional<util::TraceSession> trace_session;
  if (!trace_path.empty()) trace_session.emplace(trace_path);

  const std::uint64_t uploads_before = shard_.block_uploads();
  const std::uint64_t bytes_before = shard_.resident_bytes();

  util::Timer batch_timer;
  util::TraceSpan batch_span("cublastp.search_batch", "core");
  if (batch_span.active()) {
    batch_span.arg("queries", static_cast<std::uint64_t>(queries.size()));
    batch_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
    batch_span.arg("db_blocks", static_cast<std::uint64_t>(config_.db_blocks));
    batch_span.arg("engine_workers", config_.engine_workers);
  }

  // Cross-query overlap (Fig. 12 generalized): the main thread drives
  // query q+1's GPU phases while one worker drains query q's engine-free
  // CPU stage. A single worker keeps the CPU stages in query order, which
  // is also what the real pipeline's one-CPU-resource model assumes.
  std::vector<std::unique_ptr<QueryRun>> runs(queries.size());
  std::vector<std::future<void>> cpu_done(queries.size());
  {
    util::ThreadPool cpu_pool(1, "batch-cpu");
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      runs[qi] = std::make_unique<QueryRun>();
      util::TraceSpan query_span;
      if (util::trace_enabled()) {
        query_span.open("batch.query " + std::to_string(qi), "core");
        query_span.arg("query_length",
                       static_cast<std::uint64_t>(queries[qi].size()));
      }
      run_gpu_phases(queries[qi], *runs[qi], qi);
      QueryRun* run = runs[qi].get();
      cpu_done[qi] = cpu_pool.submit([this, run] { run_cpu_phases(*run); });
    }
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      try {
        cpu_done[qi].get();
      } catch (...) {
        // The CPU stage is engine-free and resets its outputs at entry, so
        // a worker-side failure (an injected fault, an allocation failure)
        // is retried inline; a second failure propagates to the caller.
        run_cpu_phases(*runs[qi]);
      }
    }
  }

  for (auto& run : runs)
    detail::finish_search_report(*run, config_, profiler_,
                                 /*emit_modeled_trace=*/false);

  batch.reports.reserve(queries.size());
  batch.per_query_wall_seconds.reserve(queries.size());
  std::vector<ModeledQuery> modeled(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    modeled[qi].prep_s = runs[qi]->prep_s;
    modeled[qi].finalize_s = runs[qi]->cpu.finalize_s;
    modeled[qi].blocks = std::move(runs[qi]->cpu.modeled);
    batch.per_query_wall_seconds.push_back(runs[qi]->wall_seconds);
    batch.prefilter_sequences += runs[qi]->report.prefilter_sequences;
    batch.prefilter_survivors += runs[qi]->report.prefilter_survivors;
    batch.reports.push_back(std::move(runs[qi]->report));
  }

  // leakcheck over the batch: destroy every run (and with it every query's
  // device buffers) first, then scan. Findings land on the first report —
  // per-query attribution is impossible once queries overlap.
  runs.clear();
  if (shard_.engine().simtcheck_enabled())
    simt::device_leak_check(batch.reports[0].hazards, batch_generation);

  batch.batch_wall_seconds = batch_timer.seconds();
  batch.h2d_block_uploads = shard_.block_uploads() - uploads_before;
  batch.h2d_block_bytes = shard_.resident_bytes() - bytes_before;
  batch.db_device_bytes = db_device_bytes();

  batch.modeled_batch_seconds =
      walk_batch_pipeline(modeled, config_.cpu_threads);
  // What N one-shot sessions would model: each query runs its own Fig. 12
  // walk (already in overlapped_total_seconds) and pays the full database
  // upload, priced by the same PCIe model, minus whatever upload time its
  // profile already contains.
  double full_upload_ms = 0.0;
  for (std::size_t bi = 0; bi < shard_.num_blocks(); ++bi) {
    const auto [begin, end] = shard_.block_range(bi);
    const std::uint64_t block_bytes =
        db_->offsets()[end] - db_->offsets()[begin] +
        (end - begin + 1) * sizeof(std::uint32_t);
    full_upload_ms += shard_.engine().cost_model().transfer_ms(
        shard_.engine().spec(), block_bytes);
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

void SearchSession::export_profile() const {
  detail::export_profile_if_configured(config_, profiler_);
}

}  // namespace repro::core
