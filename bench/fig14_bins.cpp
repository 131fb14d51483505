// Figure 14: kernel execution time vs bins-per-warp (32, 64, 128, 256) for
// query517 on the swissprot database.
//
// Paper: hit sorting and hit filtering improve monotonically with more
// bins (smaller segments to sort, more parallelism), but hit detection
// degrades sharply past 128 bins because the per-warp top[] counters eat
// shared memory and depress occupancy; 128 bins/warp minimizes the total.
// Each run also records the exact warp ops of K3 and K4, which the bench
// gate compares exactly.
#include <cstdio>
#include <sstream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  const auto setup = benchx::BenchSetup::from_options(options);
  benchx::print_banner(
      "Figure 14: kernel time vs bins per warp (query517, swissprot)",
      "sorting+filtering improve with more bins; detection collapses past "
      "128 bins (shared memory vs occupancy); total is best at 128",
      setup);

  const auto w = benchx::make_workload(setup, 517, /*env_nr=*/false);

  util::Table table({"bins/warp", "detection (ms)", "sorting (ms)",
                     "filtering (ms)", "extension (ms)", "total kernels (ms)",
                     "detection occupancy"});
  std::ostringstream runs;
  runs << "[";
  bool first = true;
  for (const int bins : {32, 64, 128, 256}) {
    auto config = benchx::default_cublastp_config();
    config.num_bins_per_warp = bins;
    const auto report = core::CuBlastp(config).search(w.query, w.db);
    table.add_row(
        {std::to_string(bins), util::Table::num(report.detection_ms, 2),
         util::Table::num(report.sorting_group_ms(), 2),
         util::Table::num(report.filter_ms, 2),
         util::Table::num(report.extension_ms, 2),
         util::Table::num(report.gpu_critical_ms(), 2),
         util::Table::num(
             report.profile.at(core::kKernelDetection).occupancy, 2)});
    if (!first) runs << ", ";
    first = false;
    runs << "{\"bins_per_warp\": " << bins
         << ", \"sort_warp_ops\": "
         << report.profile.at(core::kKernelSort).vec_ops
         << ", \"filter_warp_ops\": "
         << report.profile.at(core::kKernelFilter).vec_ops
         << ", \"detection_ms\": " << report.detection_ms
         << ", \"sorting_ms\": " << report.sorting_group_ms()
         << ", \"filter_ms\": " << report.filter_ms
         << ", \"extension_ms\": " << report.extension_ms
         << ", \"total_kernels_ms\": " << report.gpu_critical_ms()
         << ", \"detection_occupancy\": "
         << report.profile.at(core::kKernelDetection).occupancy << "}";
  }
  runs << "]";
  std::printf("%s", table.render().c_str());

  benchx::BenchResult json("fig14_bins", benchx::default_cublastp_config(),
                           setup);
  json.set_workload(w);
  json.deterministic_raw("runs", runs.str());
  return json.write(options, "bench_results/fig14_bins.json");
}
