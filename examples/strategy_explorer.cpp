// Strategy explorer: the paper exposes three run-time knobs — the
// ungapped-extension strategy (§3.4), the scoring structure (§3.5), and
// the bins-per-warp count (§3.2) — whose best settings depend on the query
// and database. This tool sweeps them on the user's workload and prints a
// recommendation, the way a practitioner would tune cuBLASTP.
//
//   ./strategy_explorer [--query_len=N] [--seqs=N] [--env_nr]
#include <cstdio>
#include <limits>

#include "bio/generator.hpp"
#include "common.hpp"
#include "core/cublastp.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  if (!examples::known_options_only(options, {"query_len", "seqs", "env_nr"},
                                    "strategy_explorer"))
    return 2;
  const auto query_len =
      static_cast<std::size_t>(options.get_int("query_len", 517));
  const auto num_seqs = static_cast<std::size_t>(options.get_int("seqs", 400));

  const auto query = bio::make_benchmark_query(query_len);
  const auto profile = options.has("env_nr")
                           ? bio::DatabaseProfile::env_nr_like(num_seqs)
                           : bio::DatabaseProfile::swissprot_like(num_seqs);
  bio::DatabaseGenerator gen(profile, 7);
  const auto db = gen.generate(query.residues);
  std::printf("workload: %s (%zu residues) vs %s (%zu seqs)\n\n",
              query.id.c_str(), query.length(), profile.name.c_str(),
              db.size());

  struct Candidate {
    std::string name;
    core::Config config;
  };
  std::vector<Candidate> candidates;
  for (const auto& [sname, strategy] :
       {std::pair<const char*, core::ExtensionStrategy>{
            "diagonal", core::ExtensionStrategy::kDiagonal},
        {"hit", core::ExtensionStrategy::kHit},
        {"window", core::ExtensionStrategy::kWindow}}) {
    for (const auto& [mname, mode] :
         {std::pair<const char*, core::ScoringMode>{
              "pssm", core::ScoringMode::kPssm},
          {"blosum62", core::ScoringMode::kBlosum}}) {
      for (const int bins : {64, 128, 256}) {
        core::Config config;
        config.strategy = strategy;
        config.scoring = mode;
        config.num_bins_per_warp = bins;
        candidates.push_back(
            {std::string(sname) + " / " + mname + " / " +
                 std::to_string(bins) + " bins",
             config});
      }
    }
  }

  util::Table table({"configuration", "GPU kernels (ms)",
                     "overlapped total (ms)", "alignments"});
  std::string best_name;
  double best_ms = std::numeric_limits<double>::infinity();
  std::size_t reference_alignments = 0;
  bool all_identical = true;
  std::vector<blast::Alignment> reference;
  for (const auto& candidate : candidates) {
    const auto report =
        core::CuBlastp(candidate.config).search(query.residues, db);
    if (reference.empty() && !report.result.alignments.empty()) {
      reference = report.result.alignments;
      reference_alignments = reference.size();
    } else if (report.result.alignments != reference) {
      all_identical = false;
    }
    table.add_row({candidate.name,
                   util::Table::num(report.gpu_critical_ms(), 2),
                   util::Table::num(report.overlapped_total_seconds * 1e3, 2),
                   std::to_string(report.result.alignments.size())});
    if (report.gpu_critical_ms() < best_ms) {
      best_ms = report.gpu_critical_ms();
      best_name = candidate.name;
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("all %zu configurations returned identical output (%zu "
              "alignments): %s\n",
              candidates.size(), reference_alignments,
              all_identical ? "yes" : "NO — please file a bug");
  std::printf("recommended configuration for this workload: %s "
              "(%.2f ms GPU kernels)\n",
              best_name.c_str(), best_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return repro::examples::run_tool("strategy_explorer",
                                   [&] { return run(argc, argv); });
}
