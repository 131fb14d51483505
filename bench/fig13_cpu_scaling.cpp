// Figure 13: strong scaling of the CPU phases (gapped extension and
// alignment with traceback) across 1, 2 and 4 threads.
//
// Paper: both phases exhibit strong scaling — speedups approach 2x at two
// threads and continue climbing to ~2.5-3.5x at four threads. Here the
// gapped phase is the one recorded DP per seed and the traceback phase only
// walks the record back (a few microseconds per alignment), so the last
// column scales the whole CPU stage. The DP cell count is the stage's
// deterministic work; host ns per cell is its single-thread cost.
#include <cstdio>
#include <sstream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  const auto setup = benchx::BenchSetup::from_options(options);
  benchx::print_banner(
      "Figure 13: strong scaling of gapped extension + traceback",
      "near-linear speedup to 2 threads, ~2.5-3.5x at 4 threads",
      setup);

  const auto w = benchx::make_workload(setup, 517, /*env_nr=*/false);

  double gapped1 = 0.0, traceback1 = 0.0;
  std::uint64_t alignments = 0, dp_cells = 0;
  std::ostringstream runs;
  runs << "[";
  util::Table table({"threads", "gapped (ms)", "gapped speedup",
                     "traceback (ms)", "traceback speedup",
                     "CPU stage speedup"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto config = benchx::default_cublastp_config();
    config.cpu_threads = threads;
    const auto report = core::CuBlastp(config).search(w.query, w.db);
    if (threads == 1) {
      gapped1 = report.gapped_seconds;
      traceback1 = report.traceback_seconds;
    }
    alignments = report.result.alignments.size();
    dp_cells = report.result.counters.dp_cells;
    const double stage_speedup =
        (gapped1 + traceback1) /
        (report.gapped_seconds + report.traceback_seconds);
    table.add_row(
        {std::to_string(threads),
         util::Table::num(report.gapped_seconds * 1e3, 2),
         util::Table::num(gapped1 / report.gapped_seconds, 2) + "x",
         util::Table::num(report.traceback_seconds * 1e3, 3),
         util::Table::num(traceback1 / report.traceback_seconds, 2) + "x",
         util::Table::num(stage_speedup, 2) + "x"});
    if (threads != 1) runs << ", ";
    runs << "{\"threads\": " << threads
         << ", \"gapped_s\": " << report.gapped_seconds
         << ", \"traceback_s\": " << report.traceback_seconds
         << ", \"gapped_speedup\": " << gapped1 / report.gapped_seconds
         << ", \"traceback_speedup\": "
         << traceback1 / report.traceback_seconds
         << ", \"cpu_stage_speedup\": " << stage_speedup << "}";
  }
  runs << "]";
  // At one thread the makespans are the summed per-seed host costs.
  const double ns_per_cell =
      dp_cells ? (gapped1 + traceback1) * 1e9 / static_cast<double>(dp_cells)
               : 0.0;
  std::printf("%s", table.render().c_str());
  std::printf("\nDP cells: %llu; host cost %.2f ns per cell (1 thread, gapped\n"
              "+ traceback).\n",
              static_cast<unsigned long long>(dp_cells), ns_per_cell);
  std::printf("\n(8-thread row extends the paper's 1/2/4 sweep; scaling is\n"
              " the T-worker makespan of measured per-seed task costs,\n"
              " see DESIGN.md on the single-core substitution.)\n");

  benchx::BenchResult json("fig13_cpu_scaling",
                           benchx::default_cublastp_config(), setup);
  json.set_workload(w);
  json.deterministic("alignments", alignments);
  json.deterministic("dp_cells", dp_cells);
  json.measured("host_ns_per_cell", ns_per_cell);
  json.measured_raw("runs", runs.str());
  return json.write(options, "bench_results/fig13_cpu_scaling.json");
}
