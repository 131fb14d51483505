#include "core/session_detail.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/coarse_block.hpp"
#include "core/errors.hpp"
#include "core/prefilter.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace repro::core::detail {

double kernel_ms(const simt::ProfileRegistry& registry, const char* name) {
  return registry.has(name) ? registry.at(name).time_ms : 0.0;
}

void append_checkpoint_gaps(const util::svc::CheckpointScope& scope,
                            std::span<const char* const> always,
                            std::span<const char* const> per_block,
                            bool has_blocks, simt::HazardReport& sink) {
  auto append = [&](std::span<const char* const> required) {
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
  append(always);
  if (has_blocks) append(per_block);
}

std::string path_or_env(const std::string& configured, const char* env_name) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv(env_name)) return env;
  return {};
}

void finish_search_report(QueryRun& run, const Config& config,
                          simt::prof::ContinuousProfiler& profiler,
                          bool emit_modeled_trace) {
  SearchReport& report = run.report;
  report.result.alignments = std::move(run.cpu.alignments);
  report.gapped_seconds = run.cpu.gapped_s;
  report.traceback_seconds = run.cpu.traceback_s;
  report.result.counters.gapped_extensions = run.cpu.gapped_extensions;
  report.result.counters.tracebacks = run.cpu.tracebacks;
  report.result.counters.dp_cells = run.cpu.dp_cells;
  report.other_seconds = run.prep_s + run.cpu.finalize_s;

  report.profile = std::move(run.profile_delta);
  report.hazards = std::move(run.hazards);
  report.shards = std::move(run.shards);
  report.detection_ms = kernel_ms(report.profile, kKernelDetection);
  report.scan_ms = kernel_ms(report.profile, kKernelScan);
  report.assemble_ms = kernel_ms(report.profile, kKernelAssemble);
  report.sort_ms = kernel_ms(report.profile, kKernelSort);
  report.filter_ms = kernel_ms(report.profile, kKernelFilter);
  report.extension_ms = kernel_ms(report.profile, kKernelExtension);
  report.prefilter_ms = kernel_ms(report.profile, kKernelPrefilter);
  report.coarse_ms = kernel_ms(report.profile, kKernelCoarse);
  report.h2d_ms = kernel_ms(report.profile, "h2d_query") +
                  kernel_ms(report.profile, "h2d_block") +
                  kernel_ms(report.profile, "h2d_prefilter") +
                  kernel_ms(report.profile, "h2d_survivors");
  report.d2h_ms = kernel_ms(report.profile, "d2h_extensions") +
                  kernel_ms(report.profile, "d2h_prefilter");

  const PipelineTotals totals =
      walk_pipeline(run.cpu.modeled, config.cpu_threads, emit_modeled_trace);
  report.overlapped_total_seconds = totals.overlapped_s + report.other_seconds;
  report.serial_total_seconds = totals.serial_s + report.other_seconds;

  double fallback_seconds = 0.0;
  for (const double s : run.block_fallback_s) fallback_seconds += s;

  // Map into the common PhaseTimings (GPU ms -> seconds). Degraded blocks
  // fold their host-side critical-phase cost into hit detection, where the
  // work they replaced lives; so do the pre-filter and coarse-backend
  // kernels, which substitute for (parts of) hit detection.
  report.result.timings.hit_detection =
      (report.detection_ms + report.scan_ms + report.assemble_ms +
       report.sort_ms + report.filter_ms + report.prefilter_ms +
       report.coarse_ms) /
          1e3 +
      fallback_seconds;
  report.result.timings.ungapped_extension = report.extension_ms / 1e3;
  report.result.timings.gapped_extension = report.gapped_seconds;
  report.result.timings.traceback = report.traceback_seconds;
  report.result.timings.other =
      report.other_seconds + (report.h2d_ms + report.d2h_ms) / 1e3;

  report.wall_ms = run.wall_seconds * 1e3;
  report.status = report.degraded() ? "degraded" : "ok";

  report.faults_encountered =
      util::FaultInjector::instance().total_fires() - run.fires_before;
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
  registry.counter("core.prefilter_sequences").add(report.prefilter_sequences);
  registry.counter("core.prefilter_survivors").add(report.prefilter_survivors);
  registry.counter("core.prefilter_degraded_blocks")
      .add(report.prefilter_degraded_blocks);
  registry.histogram("core.search_wall_seconds").observe(run.wall_seconds);

  // Continuous profiler: fold this query's per-kernel delta into the
  // session-lifetime aggregate (simtprof; DESIGN.md §16). Collection is
  // unconditional — it reads counters the engine already measured, so it
  // cannot perturb results — and export stays gated on a path.
  profiler.record_search(report.profile, report.wall_ms);
}

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

void export_profile_if_configured(const Config& config,
                                  const simt::prof::ContinuousProfiler& prof) {
  const std::string profile_path =
      path_or_env(config.profile_path, "REPRO_PROFILE");
  if (profile_path.empty()) return;
  try {
    prof.write_file(profile_path);
  } catch (const std::invalid_argument& e) {
    throw SearchError(SearchErrorCode::kInvalidArgument, e.what());
  }
}

}  // namespace repro::core::detail
