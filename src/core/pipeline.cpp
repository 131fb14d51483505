#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "blast/ungapped.hpp"
#include "core/bins.hpp"
#include "core/kernels.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::core {

namespace {

/// Last finish time in a modeled schedule (its makespan).
double schedule_finish(std::span<const util::ScheduledTask> tasks) {
  double finish = 0.0;
  for (const auto& t : tasks) finish = std::max(finish, t.finish);
  return finish;
}

std::uint64_t model_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// One CPU phase of one block on the modeled timeline: a span per worker
/// covering that worker's busy window in the greedy schedule (per-task
/// spans would overwhelm the trace; the task count rides as an arg).
void emit_modeled_worker_phase(const char* name, const ModeledBlock& block,
                               double phase_start_s,
                               std::span<const util::ScheduledTask> tasks,
                               std::size_t cpu_threads) {
  std::vector<double> finish(cpu_threads, 0.0);
  std::vector<std::uint64_t> count(cpu_threads, 0);
  for (const auto& t : tasks) {
    finish[t.worker] = std::max(finish[t.worker], t.finish);
    ++count[t.worker];
  }
  for (std::size_t w = 0; w < cpu_threads; ++w) {
    if (count[w] == 0) continue;
    util::TraceEvent e;
    e.phase = 'X';
    e.name = name;
    e.category = "modeled";
    e.ts_ns = model_ns(phase_start_s);
    e.dur_ns = model_ns(finish[w]);
    e.args.push_back(util::targ(
        "query", static_cast<std::uint64_t>(block.query_index)));
    e.args.push_back(util::targ(
        "block", static_cast<std::uint64_t>(block.block_index)));
    e.args.push_back(util::targ("tasks", count[w]));
    util::Tracer::instance().record_modeled(
        "cpu-worker-" + std::to_string(w) + " (modeled)", std::move(e));
  }
}

/// One database block on the modeled Fig. 12 timeline (pid 2 of the
/// trace): the GPU+PCIe chain span, then the CPU fallback (if the block
/// degraded) and the gapped/traceback phases as per-worker spans of the
/// same greedy schedule the makespan model priced.
void emit_modeled_block(const ModeledBlock& block, double gpu_start_s,
                        double cpu_start_s, std::size_t cpu_threads) {
  util::TraceEvent gpu_event;
  gpu_event.phase = 'X';
  gpu_event.name = "gpu chain";
  gpu_event.category = "modeled";
  gpu_event.ts_ns = model_ns(gpu_start_s);
  gpu_event.dur_ns = model_ns(block.gpu_s);
  gpu_event.args.push_back(
      util::targ("query", static_cast<std::uint64_t>(block.query_index)));
  gpu_event.args.push_back(
      util::targ("block", static_cast<std::uint64_t>(block.block_index)));
  util::Tracer::instance().record_modeled("GPU + PCIe (modeled)",
                                          std::move(gpu_event));

  double t = cpu_start_s;
  if (block.fallback_s > 0.0) {
    util::TraceEvent e;
    e.phase = 'X';
    e.name = "cpu_fallback";
    e.category = "modeled";
    e.ts_ns = model_ns(t);
    e.dur_ns = model_ns(block.fallback_s);
    e.args.push_back(
        util::targ("query", static_cast<std::uint64_t>(block.query_index)));
    e.args.push_back(
        util::targ("block", static_cast<std::uint64_t>(block.block_index)));
    util::Tracer::instance().record_modeled("cpu-worker-0 (modeled)",
                                            std::move(e));
    t += block.fallback_s;
  }
  emit_modeled_worker_phase("gapped", block, t, block.gapped_schedule,
                            cpu_threads);
  t += schedule_finish(block.gapped_schedule);
  emit_modeled_worker_phase("traceback", block, t, block.traceback_schedule,
                            cpu_threads);
}

/// A serial CPU slot (query preparation, finalization) on the modeled
/// batch timeline; drawn on worker 0's track, where the serial host work
/// of the real pipeline runs.
void emit_modeled_cpu_slot(const char* name, std::size_t query_index,
                           double start_s, double duration_s) {
  util::TraceEvent e;
  e.phase = 'X';
  e.name = name;
  e.category = "modeled";
  e.ts_ns = model_ns(start_s);
  e.dur_ns = model_ns(duration_s);
  e.args.push_back(
      util::targ("query", static_cast<std::uint64_t>(query_index)));
  util::Tracer::instance().record_modeled("cpu-worker-0 (modeled)",
                                          std::move(e));
}

}  // namespace

Config normalized_config(Config config) {
  if (config.num_bins_per_warp <= 0 ||
      (config.num_bins_per_warp & (config.num_bins_per_warp - 1)) != 0)
    throw std::invalid_argument("num_bins_per_warp must be a power of two");
  if (config.db_blocks == 0) config.db_blocks = 1;
  if (config.cpu_threads == 0) config.cpu_threads = 1;
  if (config.bin_capacity == 0) config.bin_capacity = 256;
  if (config.engine_workers < 1) config.engine_workers = 1;
  // A fleet cannot usefully exceed the block count; sessions additionally
  // clamp to their actual split, but the ceiling keeps a typo'd --shards
  // from constructing thousands of idle engines.
  config.shards = std::clamp<std::size_t>(config.shards, 1, config.db_blocks);
  if (config.max_bin_retries < 0) config.max_bin_retries = 0;
  if (config.max_bin_capacity <
      static_cast<std::uint32_t>(config.bin_capacity))
    config.max_bin_capacity = static_cast<std::uint32_t>(config.bin_capacity);
  return config;
}

// ---------------------------------------------------------------------------
// Stage 2: database residency.
// ---------------------------------------------------------------------------

BlockResidency::BlockResidency(
    const bio::SequenceDatabase& db,
    std::vector<std::pair<std::size_t, std::size_t>> blocks)
    : db_(&db), blocks_(std::move(blocks)), resident_(blocks_.size()) {}

const BlockDevice& BlockResidency::ensure(simt::Engine& engine,
                                          std::size_t bi) {
  if (!resident_[bi].has_value()) {
    const auto [begin, end] = blocks_[bi];
    // Residency uploads intentionally outlive the query (that is their
    // point) — tag them so leakcheck's per-query scan skips them.
    simt::DeviceAllocSite site("core.block_residency");
    simt::DeviceResidentScope resident;
    resident_[bi].emplace(*db_, begin, end);
    try {
      engine.transfer("h2d_block", resident_[bi]->h2d_bytes());
    } catch (...) {
      // Leave the block non-resident so the bytes are counted only when a
      // transfer actually succeeded; the next rung/search retries it.
      resident_[bi].reset();
      throw;
    }
    uploaded_bytes_ += resident_[bi]->h2d_bytes();
    ++uploads_;
  }
  return *resident_[bi];
}

// ---------------------------------------------------------------------------
// Stage 3: per-block GPU attempt and the degradation ladder.
// ---------------------------------------------------------------------------

namespace {

/// Arms the session's grid for one K1 launch of `capacity` slots per bin.
BinGrid& arm_bin_grid(std::optional<BinGrid>& grid, int warps, int bins,
                      std::uint32_t capacity) {
  if (grid.has_value() && grid->num_warps == warps &&
      grid->num_bins == bins && grid->fits(capacity)) {
    grid->rearm(capacity);
    return *grid;
  }
  // First use, or more slots than the grid has: free the old storage
  // before allocating the new, so the two are never live together. A
  // failed allocation leaves the holder empty, never half-built.
  grid.reset();
  // Session-resident like the database image: leakcheck's per-query scan
  // skips it, and it dies with its shard.
  simt::DeviceAllocSite site("core.bin_grid");
  simt::DeviceResidentScope resident;
  return grid.emplace(warps, bins, capacity);
}

}  // namespace

BlockOutcome run_block_on_gpu(simt::Engine& engine, const Config& config,
                              const QueryDevice& query,
                              const BlockDevice& device_block,
                              std::optional<BinGrid>& bin_grid,
                              std::uint32_t& bin_capacity,
                              std::uint64_t& overflow_retries) {
  BlockOutcome out;
  // Every scratch allocation of the fine K3-K5 chain reports under one
  // leakcheck site — they must all die with this query. The bin grid is
  // the exception: it is session-resident (arm_bin_grid).
  simt::DeviceAllocSite site("core.fine_pipeline");

  // K1 with overflow-driven capacity growth: a real implementation must
  // re-run when its fixed-size bins overflow (paper §3.2) — but only a
  // bounded number of times, and only up to a bounded capacity.
  for (int retry = 0;; ++retry) {
    BinGrid& bins = arm_bin_grid(bin_grid, config.detection_warps(),
                                 config.num_bins_per_warp, bin_capacity);
    const DetectionResult detection =
        launch_hit_detection(engine, config, query, device_block, bins);
    if (!detection.overflowed) {
      // Bin scan, K3, K4.
      AssembledBins assembled = launch_assemble(engine, bins);
      launch_sort(engine, assembled);
      FilteredBins filtered = launch_filter(engine, config, assembled);

      // K5.
      ExtensionResult extension = launch_extension(engine, config, query,
                                                   device_block, filtered);
      engine.transfer("d2h_extensions", extension.records_d2h_bytes);

      out.hits_detected = detection.total_hits;
      out.hits_after_filter = filtered.total_survivors;
      out.ungapped_extensions = extension.extensions_run;
      out.extensions = std::move(extension.extensions);
      for (auto& ext : out.extensions) ext.seq += device_block.first_seq;
      return out;
    }
    ++overflow_retries;
    if (util::trace_enabled()) {
      util::trace_instant(
          "bin_overflow_retry", "degrade",
          {util::targ("retry", retry),
           util::targ("capacity", static_cast<std::uint64_t>(bin_capacity))});
      util::trace_counter("bin_capacity", static_cast<double>(bin_capacity));
    }
    if (retry >= config.max_bin_retries)
      throw SearchError(
          SearchErrorCode::kBinOverflowExhausted,
          "bin overflow persisted after " +
              std::to_string(config.max_bin_retries) + " capacity retries");
    if (bin_capacity >= config.max_bin_capacity)
      throw SearchError(SearchErrorCode::kBinOverflowExhausted,
                        "bin capacity cap (" +
                            std::to_string(config.max_bin_capacity) +
                            ") reached while still overflowing");
    bin_capacity = bin_capacity <= config.max_bin_capacity / 2
                       ? bin_capacity * 2
                       : config.max_bin_capacity;
  }
}

BlockOutcome run_block_on_cpu(const blast::WordLookup& lookup,
                              const bio::Pssm& pssm,
                              const bio::SequenceDatabase& db,
                              std::size_t begin, std::size_t end,
                              std::size_t query_length,
                              const blast::SearchParams& params) {
  // "core.cpu_fallback" lets chaos tests exhaust the whole ladder.
  util::fault_point_throw("core.cpu_fallback");
  util::TraceSpan span("cpu_fallback", "degrade");
  if (span.active()) {
    span.arg("first_seq", static_cast<std::uint64_t>(begin));
    span.arg("end_seq", static_cast<std::uint64_t>(end));
  }
  BlockOutcome out;
  util::ThreadCpuTimer timer;
  blast::TwoHitTracker tracker(query_length + db.max_length() + 2);
  for (std::size_t i = begin; i < end; ++i) {
    const auto counters = blast::run_ungapped_phase(
        lookup, pssm, db.residues(i), static_cast<std::uint32_t>(i), params,
        tracker, out.extensions);
    out.hits_detected += counters.hits;
    out.hits_after_filter += counters.extensions_run;
    out.ungapped_extensions += counters.extensions_run;
  }
  out.cpu_fallback_seconds = timer.seconds();
  return out;
}

BlockLadderResult run_block_ladder(simt::Engine& engine, const Config& config,
                                   const QueryContext& ctx,
                                   const bio::SequenceDatabase& db,
                                   BlockResidency& residency, std::size_t bi,
                                   std::optional<BinGrid>& bin_grid,
                                   std::uint32_t& bin_capacity,
                                   std::uint64_t& overflow_retries,
                                   const CancellationToken& cancel) {
  cancel.throw_if_stopped("block_ladder.entry");
  // The ladder toggles the read-only cache per rung; restore the configured
  // setting on every exit path, including a cancellation throw between
  // rungs, so an aborted query never leaks a cache-off engine to the next.
  struct CacheRestore {
    simt::Engine& engine;
    bool enabled;
    ~CacheRestore() { engine.set_readonly_cache_enabled(enabled); }
  } cache_restore{engine, config.use_readonly_cache};

  BlockLadderResult result;
  std::optional<BlockOutcome> outcome;

  // Rung 1: the fine-grained GPU pipeline (bounded bin-capacity growth).
  // Rung 2: one more GPU attempt, read-only cache disabled.
  // Rung 3: the block's critical phases on the CPU (FSA path).
  //
  // Every rung produces the same extension set, so alignments stay
  // bit-identical to a fault-free run however far a block has to fall.
  for (int rung = 0; rung < 2 && !outcome; ++rung) {
    if (rung > 0) cancel.throw_if_stopped("block_ladder.rung");
    const bool cache_enabled = rung == 0 && config.use_readonly_cache;
    Config attempt_config = config;
    attempt_config.use_readonly_cache = cache_enabled;
    engine.set_readonly_cache_enabled(cache_enabled);
    util::TraceSpan attempt_span;
    if (util::trace_enabled()) {
      attempt_span.open("gpu_attempt", "core");
      attempt_span.arg("rung", rung);
      attempt_span.arg("readonly_cache", cache_enabled ? "on" : "off");
    }
    std::string failure;
    try {
      const BlockDevice& device_block = residency.ensure(engine, bi);
      outcome = run_block_on_gpu(engine, attempt_config, ctx.device,
                                 device_block, bin_grid, bin_capacity,
                                 overflow_retries);
    } catch (const SearchError& e) {
      failure = e.what();
    } catch (const simt::DeviceError& e) {
      failure = e.what();
    } catch (const util::FaultInjectedError& e) {
      failure = e.what();
    } catch (const std::bad_alloc&) {
      failure = "std::bad_alloc";
    }
    // Anything else — std::invalid_argument contract violations above
    // all — propagates: a retry cannot fix a malformed launch, and the
    // CPU path must not paper over a misconfigured pipeline.
    if (!outcome) {
      ++result.failed_attempts;
      if (rung == 0) result.cache_off_retry = true;
      if (attempt_span.active()) {
        attempt_span.arg("failed", failure);
        attempt_span.end();
        // One instant per ladder transition: rung 0 -> retry with the
        // read-only cache off, rung 1 -> fall through to the CPU.
        util::trace_instant(
            rung == 0 ? "degrade.cache_off_retry" : "degrade.gpu_exhausted",
            "degrade",
            {util::targ("block", static_cast<std::uint64_t>(bi)),
             util::targ("error", failure)});
      }
    }
  }
  engine.set_readonly_cache_enabled(config.use_readonly_cache);

  if (!outcome) {
    cancel.throw_if_stopped("block_ladder.cpu_fallback");
    if (util::trace_enabled())
      util::trace_instant("degrade.cpu_fallback", "degrade",
                          {util::targ("block", static_cast<std::uint64_t>(bi))});
    const auto [begin, end] = residency.range(bi);
    try {
      outcome = run_block_on_cpu(ctx.lookup, ctx.pssm, db, begin, end,
                                 ctx.query.size(), config.params);
    } catch (const std::exception& e) {
      throw SearchError(
          SearchErrorCode::kDegradationExhausted,
          "block " + std::to_string(bi) +
              " failed on GPU, on GPU with the cache disabled, and on the "
              "CPU fallback: " + e.what());
    }
    result.degraded = true;
  }

  // Every rung scans every word position of the block.
  const auto word_length = static_cast<std::size_t>(config.params.word_length);
  const auto [begin, end] = residency.range(bi);
  for (std::size_t s = begin; s < end; ++s)
    if (db.length(s) >= word_length)
      result.words_scanned += db.length(s) - word_length + 1;

  result.outcome = std::move(*outcome);
  return result;
}

// ---------------------------------------------------------------------------
// Stage 4: CPU gapped extension + traceback.
// ---------------------------------------------------------------------------

BlockCpuResult run_block_cpu_stage(
    const QueryContext& ctx, const bio::SequenceDatabase& db,
    std::span<const blast::UngappedExtension> extensions,
    const Config& config) {
  BlockCpuResult result;
  auto stage = blast::process_gapped_stage(ctx.pssm, db, extensions,
                                           config.params, ctx.evalue);
  result.gapped_makespan_seconds = util::list_schedule_makespan(
      stage.gapped_task_costs, config.cpu_threads);
  result.traceback_makespan_seconds = util::list_schedule_makespan(
      stage.traceback_task_costs, config.cpu_threads);
  result.gapped_extensions = stage.gapped_extensions;
  result.tracebacks = stage.tracebacks;
  result.dp_cells = stage.dp_cells;
  result.alignments = std::move(stage.alignments);
  if (util::trace_enabled()) {
    // Keep the greedy placements so the modeled timeline can draw the
    // per-worker CPU tracks of Fig. 12.
    result.gapped_schedule =
        util::list_schedule(stage.gapped_task_costs, config.cpu_threads);
    result.traceback_schedule =
        util::list_schedule(stage.traceback_task_costs, config.cpu_threads);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Stage 5: finalization.
// ---------------------------------------------------------------------------

double run_finalize(std::vector<blast::Alignment>& alignments,
                    const QueryContext& ctx, const Config& config) {
  util::TraceSpan finalize_span("finalize", "cpu");
  util::ThreadCpuTimer timer;
  blast::finalize_results(alignments, config.params, ctx.evalue);
  return timer.seconds();
}

// ---------------------------------------------------------------------------
// Pipeline model (paper Fig. 12), generalized across queries.
// ---------------------------------------------------------------------------

PipelineTotals walk_pipeline(std::span<const ModeledBlock> blocks,
                             std::size_t cpu_threads, bool emit_modeled) {
  PipelineTotals totals;
  double gpu_done_s = 0.0, cpu_done_s = 0.0;
  for (const auto& block : blocks) {
    const double gpu_start_s = gpu_done_s;
    gpu_done_s += block.gpu_s;
    const double cpu_start_s = std::max(cpu_done_s, gpu_done_s);
    cpu_done_s = cpu_start_s + block.cpu_s;
    totals.serial_s += block.gpu_s + block.cpu_s;
    if (emit_modeled && util::trace_enabled())
      emit_modeled_block(block, gpu_start_s, cpu_start_s, cpu_threads);
  }
  totals.overlapped_s = cpu_done_s;
  return totals;
}

double walk_batch_pipeline(std::span<const ModeledQuery> queries,
                           std::size_t cpu_threads) {
  // Two resources — the GPU/PCIe chain and the CPU — shared by every
  // query. Preparation gates the query's first GPU block and occupies the
  // CPU; each block's CPU phases start once its GPU chain and all earlier
  // CPU work are done; finalization occupies the CPU after the query's
  // last block.
  const bool emit = util::trace_enabled();
  double gpu_free_s = 0.0, cpu_free_s = 0.0;
  std::size_t qi = 0;
  for (const auto& q : queries) {
    if (emit && q.prep_s > 0.0)
      emit_modeled_cpu_slot("query_prep", qi, cpu_free_s, q.prep_s);
    cpu_free_s += q.prep_s;
    const double prep_done_s = cpu_free_s;
    for (const auto& block : q.blocks) {
      const double gpu_start_s = std::max(gpu_free_s, prep_done_s);
      gpu_free_s = gpu_start_s + block.gpu_s;
      const double cpu_start_s = std::max(cpu_free_s, gpu_free_s);
      cpu_free_s = cpu_start_s + block.cpu_s;
      if (emit) emit_modeled_block(block, gpu_start_s, cpu_start_s, cpu_threads);
    }
    if (emit && q.finalize_s > 0.0)
      emit_modeled_cpu_slot("finalize", qi, cpu_free_s, q.finalize_s);
    cpu_free_s += q.finalize_s;
    ++qi;
  }
  return cpu_free_s;
}

}  // namespace repro::core
