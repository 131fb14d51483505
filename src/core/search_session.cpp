#include "core/search_session.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/query_context.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/svccheck.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::core {

namespace {

/// Modeled GPU time accumulated in `registry` for one kernel name (ms).
double kernel_ms(const simt::ProfileRegistry& registry, const char* name) {
  return registry.has(name) ? registry.at(name).time_ms : 0.0;
}

template <typename T>
void append(std::vector<T>& to, std::vector<T>&& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

// The cancellation checkpoints a successful search must poll (svccheck
// coverage contract; DESIGN.md §15/§17). Every stage runs on the calling
// thread, so one coverage scope sees them all at every shard count.
constexpr const char* kAlwaysCheckpoints[] = {"search.entry", "query.start",
                                              "finalize"};
constexpr const char* kPerBlockCheckpoints[] = {
    "gpu_phase.block", "block_ladder.entry", "cpu_phase.block"};

/// Appends a kCheckpointGap hazard for every required checkpoint the scope
/// never saw polled: the always set, plus the per-block set when the
/// database has blocks.
void append_checkpoint_gaps(const util::svc::CheckpointScope& scope,
                            bool has_blocks, simt::HazardReport& sink) {
  auto append_missing = [&](std::span<const char* const> required) {
    for (const std::string& name : scope.missing(required)) {
      simt::HazardRecord record;
      record.kind = simt::HazardKind::kCheckpointGap;
      record.kernel = "search";
      record.detail = "cancellation checkpoint '" + name +
                      "' was never polled during this search — requests "
                      "cannot stop at that stage boundary";
      sink.add(std::move(record));
    }
  };
  append_missing(kAlwaysCheckpoints);
  if (has_blocks) append_missing(kPerBlockCheckpoints);
}

/// What one search() or search_batch() call installs around its work: the
/// config's fault schedule, whose fire counters then run across the whole
/// call, and a trace session at Config::trace_path (else REPRO_TRACE). The
/// trace session is passive when an outer owner (the CLI, the service)
/// already started one, and the outer owner writes the file.
struct CallScope {
  explicit CallScope(const Config& config) {
    if (!config.fault_schedule.empty())
      faults.emplace(config.fault_schedule, config.fault_seed != 0
                                                ? config.fault_seed
                                                : util::default_fault_seed());
    const std::string trace_path =
        path_or_env(config.trace_path, "REPRO_TRACE");
    if (!trace_path.empty()) trace.emplace(trace_path);
  }

  std::optional<util::FaultScope> faults;
  std::optional<util::TraceSession> trace;
};

/// Writes the process metrics registry to Config::metrics_path (or
/// REPRO_METRICS); no-op when neither is set.
void export_metrics_if_configured(const Config& config) {
  const std::string metrics_path =
      path_or_env(config.metrics_path, "REPRO_METRICS");
  if (metrics_path.empty()) return;
  try {
    util::metrics::Registry::instance().write_file(metrics_path);
  } catch (const std::invalid_argument& e) {
    // The util layer cannot name SearchError (layering); translate here so
    // a typo'd --metrics path surfaces through the core error taxonomy.
    throw SearchError(SearchErrorCode::kInvalidArgument, e.what());
  }
}

}  // namespace

/// One finished query: its report, plus the per-block costs the batch walk
/// re-partitions by shard.
struct SearchSession::QueryRun {
  SearchReport report;
  ModeledQuery modeled;  ///< blocks in global block order
  double wall_seconds = 0.0;
};

SearchSession::SearchSession(Config config, const bio::SequenceDatabase& db)
    : config_(normalized_config(std::move(config))), db_(&db) {
  check_search_limits({}, db);
  const auto split = db.split_blocks(config_.db_blocks);
  const std::size_t num_blocks = split.size();
  const std::size_t k = std::clamp<std::size_t>(
      config_.shards, 1, std::max<std::size_t>(1, num_blocks));
  config_.shards = k;

  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const auto first = static_cast<std::ptrdiff_t>(s * num_blocks / k);
    const auto last = static_cast<std::ptrdiff_t>((s + 1) * num_blocks / k);
    shards_.push_back(std::make_unique<EngineShard>(
        config_, db, s, static_cast<std::size_t>(first),
        std::vector<std::pair<std::size_t, std::size_t>>(
            split.begin() + first, split.begin() + last)));
  }

  if (config_.svccheck || util::svc::svccheck_env_enabled())
    util::svc::set_svccheck_enabled(true);
  // Everything allocated from here on belongs to this session for
  // leakcheck purposes; see leak_check().
  session_generation_ = simt::begin_device_generation();
  profiler_.set_device(shards_.front()->engine().spec());
}

std::uint64_t SearchSession::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->resident_bytes();
  return total;
}

std::uint64_t SearchSession::block_uploads() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->block_uploads();
  return total;
}

std::uint64_t SearchSession::db_device_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->db_device_bytes();
  return total;
}

std::uint64_t SearchSession::leak_check(simt::HazardReport& sink) const {
  return simt::device_leak_check(sink, session_generation_);
}

void SearchSession::export_profile() const {
  const std::string profile_path =
      path_or_env(config_.profile_path, "REPRO_PROFILE");
  if (profile_path.empty()) return;
  try {
    profiler_.write_file(profile_path);
  } catch (const std::invalid_argument& e) {
    throw SearchError(SearchErrorCode::kInvalidArgument, e.what());
  }
}

SearchSession::QueryRun SearchSession::run_query(
    std::span<const std::uint8_t> query, const CancellationToken& cancel,
    std::size_t query_index, bool emit_modeled_trace) {
  QueryRun run;
  SearchReport& report = run.report;
  auto& counters = report.result.counters;
  const util::Timer wall;
  const std::uint64_t fires_before =
      util::FaultInjector::instance().total_fires();
  cancel.throw_if_stopped("query.start");

  // --- stage 1: query preparation (the "Other" phase of Fig. 19d) --------
  // Built once, over the whole database: every shard scores and filters
  // against the same cutoffs and e-values.
  util::ThreadCpuTimer prep_timer;
  util::TraceSpan prep_span("query_prep", "core");
  const QueryContext ctx(query, *db_, config_);
  prep_span.end();
  run.modeled.prep_s = prep_timer.seconds();

  // --- stages 2+3: each shard's GPU half, in shard order -----------------
  // Shard order is global block order, so the launch and fault-point
  // sequence is the same at every shard count.
  std::vector<std::vector<blast::UngappedExtension>> block_extensions;
  std::vector<double> block_gpu_ms;
  std::vector<double> block_fallback_s;
  for (const auto& shard : shards_) {
    ShardGpuResult gpu = shard->run_gpu_blocks(ctx, cancel);
    report.shards.push_back(
        summarize_shard(shard->index(), shard->first_block(), gpu));

    report.bin_overflow_retries += gpu.bin_overflow_retries;
    report.cache_off_retries += gpu.cache_off_retries;
    report.degraded_blocks += gpu.degraded_blocks;
    counters.hits_detected += gpu.hits_detected;
    counters.hits_after_filter += gpu.hits_after_filter;
    counters.ungapped_extensions += gpu.ungapped_extensions;
    counters.words_scanned += gpu.words_scanned;

    append(report.retry_counts, std::move(gpu.retry_counts));
    append(block_extensions, std::move(gpu.block_extensions));
    append(block_gpu_ms, std::move(gpu.block_gpu_ms));
    append(block_fallback_s, std::move(gpu.block_fallback_s));
    for (const auto& [name, stats] : gpu.profile_delta.kernels())
      report.profile.add(stats);
    report.hazards.merge(gpu.hazards);
  }

  // --- stage 4: gapped extension + traceback, block by block -------------
  for (std::size_t bi = 0; bi < block_extensions.size(); ++bi) {
    cancel.throw_if_stopped("cpu_phase.block");
    util::TraceSpan gapped_span;
    if (util::trace_enabled()) {
      gapped_span.open("gapped_stage", "cpu");
      gapped_span.arg("block", static_cast<std::uint64_t>(bi));
    }
    BlockCpuResult stage =
        run_block_cpu_stage(ctx, *db_, block_extensions[bi], config_);
    if (gapped_span.active()) {
      gapped_span.arg("gapped_tasks",
                      static_cast<std::uint64_t>(stage.gapped_schedule.size()));
      gapped_span.arg(
          "traceback_tasks",
          static_cast<std::uint64_t>(stage.traceback_schedule.size()));
    }
    report.gapped_seconds += stage.gapped_makespan_seconds;
    report.traceback_seconds += stage.traceback_makespan_seconds;
    counters.gapped_extensions += stage.gapped_extensions;
    counters.tracebacks += stage.tracebacks;
    counters.dp_cells += stage.dp_cells;

    ModeledBlock modeled;
    modeled.query_index = query_index;
    modeled.block_index = bi;
    modeled.gpu_s = block_gpu_ms[bi] / 1e3;
    modeled.cpu_s = stage.gapped_makespan_seconds +
                    stage.traceback_makespan_seconds + block_fallback_s[bi];
    modeled.fallback_s = block_fallback_s[bi];
    modeled.gapped_schedule = std::move(stage.gapped_schedule);
    modeled.traceback_schedule = std::move(stage.traceback_schedule);
    run.modeled.blocks.push_back(std::move(modeled));

    append(report.result.alignments, std::move(stage.alignments));
  }

  // --- stage 5: finalization over the merged alignments ------------------
  cancel.throw_if_stopped("finalize");
  run.modeled.finalize_s =
      run_finalize(report.result.alignments, ctx, config_);
  run.wall_seconds = wall.seconds();

  // --- the report: modeled phases, the Fig. 12 walk, metrics -------------
  report.other_seconds = run.modeled.prep_s + run.modeled.finalize_s;
  report.detection_ms = kernel_ms(report.profile, kKernelDetection);
  report.scan_ms = kernel_ms(report.profile, kKernelScan);
  report.sort_ms = kernel_ms(report.profile, kKernelSort);
  report.filter_ms = kernel_ms(report.profile, kKernelFilter);
  report.extension_ms = kernel_ms(report.profile, kKernelExtension);
  report.h2d_ms = kernel_ms(report.profile, "h2d_query") +
                  kernel_ms(report.profile, "h2d_block");
  report.d2h_ms = kernel_ms(report.profile, "d2h_extensions");

  const PipelineTotals totals = walk_pipeline(
      run.modeled.blocks, config_.cpu_threads, emit_modeled_trace);
  report.overlapped_total_seconds = totals.overlapped_s + report.other_seconds;
  report.serial_total_seconds = totals.serial_s + report.other_seconds;

  double fallback_seconds = 0.0;
  for (const double s : block_fallback_s) fallback_seconds += s;

  // Map into the common PhaseTimings (GPU ms -> seconds). Degraded blocks
  // fold their host-side critical-phase cost into hit detection, where the
  // work they replaced lives.
  report.result.timings.hit_detection =
      (report.detection_ms + report.scan_ms + report.sort_ms +
       report.filter_ms) / 1e3 +
      fallback_seconds;
  report.result.timings.ungapped_extension = report.extension_ms / 1e3;
  report.result.timings.gapped_extension = report.gapped_seconds;
  report.result.timings.traceback = report.traceback_seconds;
  report.result.timings.other =
      report.other_seconds + (report.h2d_ms + report.d2h_ms) / 1e3;

  report.wall_ms = run.wall_seconds * 1e3;
  report.status = report.degraded() ? "degraded" : "ok";

  report.faults_encountered =
      util::FaultInjector::instance().total_fires() - fires_before;
  if (util::trace_enabled() && report.faults_encountered > 0)
    util::trace_instant("faults_absorbed", "degrade",
                        {util::targ("count", report.faults_encountered)});

  // Metrics are always on (lock-free recording; see util/metrics.hpp) —
  // only the export is gated on a destination being configured.
  auto& registry = util::metrics::Registry::instance();
  registry.counter("core.searches").add(1);
  registry.counter("core.alignments").add(report.result.alignments.size());
  registry.counter("core.bin_overflow_retries")
      .add(report.bin_overflow_retries);
  registry.counter("core.cache_off_retries").add(report.cache_off_retries);
  registry.counter("core.degraded_blocks").add(report.degraded_blocks);
  registry.counter("core.faults_absorbed").add(report.faults_encountered);
  registry.histogram("core.search_wall_seconds").observe(run.wall_seconds);

  // Continuous profiler: fold this query's per-kernel delta into the
  // session-lifetime aggregate (simtprof; DESIGN.md §16). Collection is
  // unconditional — it reads counters the engines already measured, so it
  // cannot perturb results — and export stays gated on a path.
  profiler_.record_search(report.profile, report.wall_ms);
  return run;
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
  const CallScope scope(config_);

  util::TraceSpan search_span("cublastp.search", "core");
  if (search_span.active()) {
    search_span.arg("query_length", static_cast<std::uint64_t>(query.size()));
    search_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
    search_span.arg("db_blocks", static_cast<std::uint64_t>(config_.db_blocks));
    search_span.arg("engine_workers", config_.engine_workers);
    search_span.arg("shards", static_cast<std::uint64_t>(shards_.size()));
  }
  SearchReport report =
      run_query(query, cancel, 0, /*emit_modeled_trace=*/true).report;
  if (search_span.active()) {
    search_span.arg("alignments", static_cast<std::uint64_t>(
                                      report.result.alignments.size()));
    search_span.arg("degraded_blocks", report.degraded_blocks);
    search_span.arg("faults_absorbed", report.faults_encountered);
  }
  search_span.end();

  // leakcheck: any device allocation made during this query and still live
  // now outlived it (the DeviceResidentScope-tagged database image is
  // exempt — outliving queries is its purpose).
  if (shards_.front()->engine().simtcheck_enabled())
    simt::device_leak_check(report.hazards, query_generation);
  // svccheck: assert the stage-boundary checkpoint coverage contract.
  if (util::svc::svccheck_enabled())
    append_checkpoint_gaps(checkpoints, shards_.front()->num_blocks() > 0,
                           report.hazards);

  export_metrics_if_configured(config_);
  export_profile();
  return report;
}

BatchReport SearchSession::search_batch(
    std::span<const std::span<const std::uint8_t>> queries) {
  BatchReport batch;
  batch.shards = shards_.size();
  if (queries.empty()) return batch;
  // Fail fast on any invalid query before any work is done.
  for (const auto& query : queries) check_search_limits(query, *db_);
  // Leakcheck floor for the whole batch (scanned once, at the end).
  const std::uint64_t batch_generation = simt::begin_device_generation();
  const CallScope scope(config_);

  const std::uint64_t uploads_before = block_uploads();
  const std::uint64_t bytes_before = resident_bytes();

  const util::Timer batch_timer;
  util::TraceSpan batch_span("cublastp.search_batch", "core");
  if (batch_span.active()) {
    batch_span.arg("queries", static_cast<std::uint64_t>(queries.size()));
    batch_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
    batch_span.arg("db_blocks", static_cast<std::uint64_t>(config_.db_blocks));
    batch_span.arg("engine_workers", config_.engine_workers);
    batch_span.arg("shards", static_cast<std::uint64_t>(shards_.size()));
  }

  // Queries run in input order, so per-query reports are bit-identical to
  // sequential search() calls. For the model, each shard walks its own
  // cross-query Fig. 12 pipeline: its GPU chain runs its own blocks, and its
  // CPU resource runs every query's preparation, the CPU phases of its
  // blocks, and every query's finalization.
  std::vector<std::vector<ModeledQuery>> shard_walks(
      shards_.size(), std::vector<ModeledQuery>(queries.size()));
  batch.reports.reserve(queries.size());
  batch.per_query_wall_seconds.reserve(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    util::TraceSpan query_span;
    if (util::trace_enabled()) {
      query_span.open("batch.query " + std::to_string(qi), "core");
      query_span.arg("query_length",
                     static_cast<std::uint64_t>(queries[qi].size()));
    }
    QueryRun run =
        run_query(queries[qi], {}, qi, /*emit_modeled_trace=*/false);
    query_span.end();

    auto blocks = run.modeled.blocks.begin();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ModeledQuery& walk = shard_walks[s][qi];
      walk.prep_s = run.modeled.prep_s;
      walk.finalize_s = run.modeled.finalize_s;
      const auto owned = static_cast<std::ptrdiff_t>(shards_[s]->num_blocks());
      walk.blocks.assign(std::make_move_iterator(blocks),
                         std::make_move_iterator(blocks + owned));
      blocks += owned;
    }

    batch.per_query_wall_seconds.push_back(run.wall_seconds);
    batch.reports.push_back(std::move(run.report));
  }

  // leakcheck over the batch: every query's device buffers are gone by
  // now. Findings land on the first report.
  if (shards_.front()->engine().simtcheck_enabled())
    simt::device_leak_check(batch.reports[0].hazards, batch_generation);

  batch.batch_wall_seconds = batch_timer.seconds();
  batch.h2d_block_uploads = block_uploads() - uploads_before;
  batch.h2d_block_bytes = resident_bytes() - bytes_before;
  batch.db_device_bytes = db_device_bytes();

  // The modeled fleet makespan: the shards walk concurrently, and the batch
  // finishes when the slowest one does.
  for (const auto& walk : shard_walks)
    batch.modeled_batch_seconds =
        std::max(batch.modeled_batch_seconds,
                 walk_batch_pipeline(walk, config_.cpu_threads));

  // What N one-shot single-engine sessions would model: each query runs its
  // own Fig. 12 walk (already in overlapped_total_seconds) and pays the full
  // database upload, priced by the same PCIe model, minus whatever upload
  // time its profile already contains.
  const simt::Engine& cost_engine = shards_.front()->engine();
  double full_upload_ms = 0.0;
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
        (full_upload_ms - kernel_ms(report.profile, "h2d_block")) / 1e3;

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
  export_metrics_if_configured(config_);
  export_profile();
  return batch;
}

BatchReport SearchSession::search_all_vs_all(std::size_t limit) {
  std::size_t count = db_->size();
  if (limit != 0 && limit < count) count = limit;
  std::vector<std::span<const std::uint8_t>> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) queries.push_back(db_->residues(i));
  return search_batch(queries);
}

}  // namespace repro::core
