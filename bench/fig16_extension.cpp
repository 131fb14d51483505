// Figure 16: the three fine-grained ungapped-extension strategies
// (diagonal-based, hit-based, window-based) on the swissprot database.
//
// Paper: (a) window-based is fastest — 24/20/12% faster than diagonal-
// based and 38/36/27% faster than hit-based for query127/517/1054;
// (b) window-based also has by far the lowest divergence overhead.
// Each strategy's K5 warp steps are reported beside its time, so the gap
// also shows as a count.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  const auto setup = benchx::BenchSetup::from_options(options);
  benchx::print_banner(
      "Figure 16: diagonal- vs hit- vs window-based ungapped extension",
      "(a) window-based fastest (12-24% over diagonal, 27-38% over hit);"
      " (b) window-based has the lowest divergence overhead",
      setup);

  struct Strategy {
    const char* name;
    core::ExtensionStrategy strategy;
  };
  const Strategy strategies[] = {
      {"diagonal-based", core::ExtensionStrategy::kDiagonal},
      {"hit-based", core::ExtensionStrategy::kHit},
      {"window-based", core::ExtensionStrategy::kWindow},
  };

  util::Table time_table({"query", "diagonal (ms)", "hit (ms)",
                          "window (ms)", "window vs diagonal",
                          "window vs hit"});
  util::Table div_table({"query", "diagonal divergence", "hit divergence",
                         "window divergence"});
  util::Table ops_table({"query", "diagonal warp steps", "hit warp steps",
                         "window warp steps"});
  std::ostringstream runs;
  runs << "[";
  bool first = true;
  for (const std::size_t qlen : benchx::kQueryLengths) {
    const auto w = benchx::make_workload(setup, qlen, /*env_nr=*/false);
    double ms[3] = {};
    double divergence[3] = {};
    std::uint64_t warp_ops[3] = {};
    for (int s = 0; s < 3; ++s) {
      auto config = benchx::default_cublastp_config();
      config.strategy = strategies[s].strategy;
      const auto report = core::CuBlastp(config).search(w.query, w.db);
      const auto& k5 = report.profile.at(core::kKernelExtension);
      ms[s] = report.extension_ms;
      divergence[s] = k5.divergence_overhead();
      warp_ops[s] = k5.vec_ops;
    }
    time_table.add_row(
        {w.query_name, util::Table::num(ms[0], 2), util::Table::num(ms[1], 2),
         util::Table::num(ms[2], 2),
         util::Table::num((ms[0] / ms[2] - 1.0) * 100.0, 1) + "%",
         util::Table::num((ms[1] / ms[2] - 1.0) * 100.0, 1) + "%"});
    div_table.add_row({w.query_name, util::Table::num(divergence[0], 3),
                       util::Table::num(divergence[1], 3),
                       util::Table::num(divergence[2], 3)});
    ops_table.add_row({w.query_name, std::to_string(warp_ops[0]),
                       std::to_string(warp_ops[1]),
                       std::to_string(warp_ops[2])});
    if (!first) runs << ", ";
    first = false;
    runs << "{\"query\": \"" << w.query_name
         << "\", \"diagonal_ms\": " << ms[0] << ", \"hit_ms\": " << ms[1]
         << ", \"window_ms\": " << ms[2]
         << ", \"diagonal_divergence\": " << divergence[0]
         << ", \"hit_divergence\": " << divergence[1]
         << ", \"window_divergence\": " << divergence[2]
         << ", \"diagonal_warp_ops\": " << warp_ops[0]
         << ", \"hit_warp_ops\": " << warp_ops[1]
         << ", \"window_warp_ops\": " << warp_ops[2] << "}";
  }
  runs << "]";
  std::printf("(a) ungapped-extension kernel time\n%s\n",
              time_table.render().c_str());
  std::printf("(b) divergence overhead (fraction of issue slots idle)\n%s",
              div_table.render().c_str());
  std::printf("\n(c) K5 warp steps\n%s", ops_table.render().c_str());

  benchx::BenchResult json("fig16_extension",
                           benchx::default_cublastp_config(), setup);
  json.deterministic_raw("runs", runs.str());
  return json.write(options, "bench_results/fig16_extension.json");
}
