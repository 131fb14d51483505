// Quickstart: the smallest end-to-end cuBLASTP search.
//
//   ./quickstart [--query=FASTA] [--db=FASTA] [--lenient]
//
// Without arguments it generates a small synthetic database with planted
// homologs of a synthetic query, runs the fine-grained cuBLASTP engine,
// verifies the result against the FSA-BLAST reference, and prints the top
// alignments in blastp-style output.
#include <cstdio>

#include "baselines/cpu.hpp"
#include "bio/generator.hpp"
#include "blast/results.hpp"
#include "common.hpp"
#include "core/cublastp.hpp"
#include "util/options.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  if (!examples::known_options_only(options, {"query", "db", "lenient"},
                                    "quickstart"))
    return 2;

  // 1. Get a query and a database (from FASTA files, or synthetic).
  bio::Sequence query;
  bio::SequenceDatabase db;
  if (options.has("query") && options.has("db")) {
    const bool lenient = options.has("lenient");
    query = examples::load_fasta(options.get("query", ""), lenient,
                                 "quickstart")
                .at(0);
    db = examples::load_database(options.get("db", ""), lenient,
                                 "quickstart");
  } else {
    query = bio::make_benchmark_query(127);
    auto profile = bio::DatabaseProfile::swissprot_like(500);
    profile.homolog_fraction = 0.03;
    db = bio::DatabaseGenerator(profile, 42).generate(query.residues);
    std::printf("(no --query/--db given: generated %zu synthetic sequences "
                "with planted homologs)\n\n",
                db.size());
  }

  // 2. Configure and run the search.
  core::Config config;                              // paper defaults
  config.strategy = core::ExtensionStrategy::kWindow;
  core::CuBlastp engine(config);
  const auto report = engine.search(query.residues, db);

  // 3. Cross-check against the sequential FSA-BLAST reference
  //    (paper §4.3: outputs must be identical).
  const auto reference =
      baselines::fsa_blast_search(query.residues, db, config.params);
  std::printf("cuBLASTP found %zu alignments; identical to FSA-BLAST: %s\n\n",
              report.result.alignments.size(),
              reference.alignments == report.result.alignments ? "yes"
                                                               : "NO!");

  // 4. Print the top hits.
  const std::size_t top =
      std::min<std::size_t>(3, report.result.alignments.size());
  for (std::size_t i = 0; i < top; ++i)
    std::printf("%s\n",
                blast::format_alignment(query.residues, db,
                                        report.result.alignments[i])
                    .c_str());

  // 5. Phase summary.
  std::printf("GPU kernels (modeled): %.2f ms  |  CPU gapped+traceback: "
              "%.2f ms  |  overlapped total: %.2f ms\n",
              report.gpu_critical_ms(),
              (report.gapped_seconds + report.traceback_seconds) * 1e3,
              report.overlapped_total_seconds * 1e3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return repro::examples::run_tool("quickstart",
                                   [&] { return run(argc, argv); });
}
