// Figure 19: profiling comparison of cuBLASTP vs CUDA-BLASTP vs GPU-BLASTP
// on query517 / env_nr — (a) global memory load efficiency, (b) divergence
// overhead, (c) achieved occupancy, per kernel; (d) cuBLASTP's overall
// execution breakdown with CPU/GPU/PCIe overlap; plus the §3.3 claim that
// only 5-11% of detected hits survive filtering.
//
// Paper values (query517, env_nr): load efficiency 67.0/46.2/25.0/81.0%
// for cuBLASTP's detection/sorting/filtering/extension vs 5.2% for
// CUDA-BLASTP and 11.5% for GPU-BLASTP; cuBLASTP kernels also show far
// lower divergence and higher occupancy; "Other" (DFA/PSSM build, output)
// is ~18% of cuBLASTP's total.
//
// The cuBLASTP side of the table comes from the continuous profiler
// (simt::prof::ContinuousProfiler) — the same aggregate a live service
// exposes through /statusz — so this bench doubles as a fixture for the
// profiler's phase grouping. Writes bench_results/fig19_profiling.json
// (schema cublastp.bench.v1; see scripts/check_bench_regression.py).
#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/search_session.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  const auto setup = benchx::BenchSetup::from_options(options);
  benchx::print_banner(
      "Figure 19: profiling cuBLASTP vs CUDA-BLASTP vs GPU-BLASTP "
      "(query517, env_nr)",
      "(a) load efficiency 67/46/25/81% fine-grained vs 5.2/11.5% coarse; "
      "(b) coarse kernels dominated by divergence; (c) fine-grained "
      "occupancy higher; (d) transfers+gapped overlap; Other ~18%",
      setup);

  const auto w = benchx::make_workload(setup, 517, /*env_nr=*/true);
  const auto config = benchx::default_cublastp_config();

  util::Timer timer;
  core::SearchSession session(config, w.db);
  const auto cu = session.search(w.query);
  const double host_wall_s = timer.seconds();
  const auto& profiler = session.profiler();

  const auto cuda = baselines::cuda_blastp_search(
      w.query, w.db, benchx::default_coarse_config());
  const auto gpu = baselines::gpu_blastp_search(
      w.query, w.db, benchx::default_coarse_config());

  // (a-c) per-phase profile, straight from the continuous profiler.
  std::printf("(a-c) cuBLASTP per-phase profile (continuous profiler)\n%s\n",
              profiler.to_table().c_str());

  util::Table coarse({"kernel", "load efficiency", "divergence overhead",
                      "occupancy"});
  for (const auto& [name, report] :
       {std::pair<const char*, const baselines::CoarseReport*>{
            "CUDA-BLASTP fused kernel", &cuda},
        {"GPU-BLASTP fused kernel", &gpu}}) {
    const auto& stats = report->profile.at(baselines::kCoarseKernel);
    coarse.add_row({name,
                    util::Table::num(stats.global_load_efficiency() * 100, 1) +
                        "%",
                    util::Table::num(stats.divergence_overhead() * 100, 1) +
                        "%",
                    util::Table::num(stats.occupancy * 100, 1) + "%"});
  }
  std::printf("coarse baselines\n%s\n", coarse.render().c_str());

  // (d) cuBLASTP execution breakdown.
  const double total = cu.serial_total_seconds;
  util::Table breakdown({"component", "time (ms)", "share of serial total"});
  auto row = [&](const char* name, double seconds) {
    breakdown.add_row({name, util::Table::num(seconds * 1e3, 2),
                       util::Table::num(100.0 * seconds / total, 1) + "%"});
  };
  row("hit detection", cu.detection_ms / 1e3);
  row("hit sorting (scan+sort)", cu.sorting_group_ms() / 1e3);
  row("hit filtering", cu.filter_ms / 1e3);
  row("ungapped extension", cu.extension_ms / 1e3);
  row("data transfer (H2D+D2H)", (cu.h2d_ms + cu.d2h_ms) / 1e3);
  row("gapped extension (CPU)", cu.gapped_seconds);
  row("final alignment (CPU)", cu.traceback_seconds);
  row("other (DFA/PSSM build, output)", cu.other_seconds);
  std::printf("(d) cuBLASTP breakdown\n%s", breakdown.render().c_str());
  std::printf("overlapped total %.2f ms vs serial total %.2f ms "
              "(overlap hides %.1f%%)\n\n",
              cu.overlapped_total_seconds * 1e3,
              cu.serial_total_seconds * 1e3,
              100.0 * (1.0 - cu.overlapped_total_seconds /
                                 cu.serial_total_seconds));

  std::printf("Filter survival ratio (paper §3.3: 5-11%%): %.1f%%\n",
              cu.result.counters.filter_survival_ratio() * 100.0);

  // JSON result: the per-phase numbers are modeled (bit-stable at a given
  // scale); the CPU-stage seconds are host-measured.
  benchx::BenchResult result("fig19_profiling", config, setup);
  result.set_workload(w);
  {
    std::ostringstream phases;
    phases << "{";
    bool first = true;
    for (const auto& phase : profiler.phases()) {
      if (!first) phases << ", ";
      first = false;
      phases << "\"" << phase.phase << "\": {\"modeled_ms\": "
             << phase.stats.time_ms << ", \"share\": " << phase.share
             << ", \"load_efficiency\": "
             << phase.stats.global_load_efficiency()
             << ", \"divergence_overhead\": "
             << phase.stats.divergence_overhead()
             << ", \"occupancy\": " << phase.stats.occupancy << "}";
    }
    phases << "}";
    result.deterministic_raw("phases", phases.str());
  }
  for (const auto& [name, report] :
       {std::pair<const char*, const baselines::CoarseReport*>{
            "cuda_blastp", &cuda},
        {"gpu_blastp", &gpu}}) {
    const auto& stats = report->profile.at(baselines::kCoarseKernel);
    std::ostringstream coarse_json;
    coarse_json << "{\"load_efficiency\": "
                << stats.global_load_efficiency()
                << ", \"divergence_overhead\": "
                << stats.divergence_overhead()
                << ", \"occupancy\": " << stats.occupancy << "}";
    result.deterministic_raw(name, coarse_json.str());
  }
  result.deterministic("modeled_total_ms", profiler.total_modeled_ms());
  result.deterministic("filter_survival_ratio",
                       cu.result.counters.filter_survival_ratio());
  result.deterministic("gpu_critical_ms", cu.gpu_critical_ms());
  result.deterministic("alignments",
                       static_cast<std::uint64_t>(
                           cu.result.alignments.size()));
  result.measured("host_wall_s", host_wall_s);
  result.measured("gapped_seconds", cu.gapped_seconds);
  result.measured("traceback_seconds", cu.traceback_seconds);
  result.measured("other_seconds", cu.other_seconds);
  return result.write(options, "bench_results/fig19_profiling.json");
}
