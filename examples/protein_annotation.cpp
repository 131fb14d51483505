// Metagenome annotation scenario (the paper's env_nr motivation): search a
// batch of query proteins against a large collection of environmental
// reads and report, for each query, its best annotated match — the bread-
// and-butter downstream use of BLASTP.
//
// The whole batch runs through one core::SearchSession::search_batch, so
// the read collection is uploaded to the device once and each query's CPU
// gapped stage overlaps the next query's GPU phases (the paper's Fig. 12
// overlap, generalized across queries).
//
//   ./protein_annotation [--reads=N] [--queries=N] [--threads=T]
#include <cstdio>
#include <span>
#include <vector>

#include "bio/generator.hpp"
#include "common.hpp"
#include "core/search_session.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  std::vector<std::string_view> keys = {"reads", "queries"};
  keys.insert(keys.end(), examples::kConfigKeys.begin(),
              examples::kConfigKeys.end());
  if (!examples::known_options_only(options, keys, "protein_annotation"))
    return 2;
  const auto num_reads =
      static_cast<std::size_t>(options.get_int("reads", 2000));
  const auto num_queries =
      static_cast<std::size_t>(options.get_int("queries", 8));

  // Build the "sequenced environment": env_nr-like reads, a fraction of
  // which carry fragments of our query proteins (so annotation can work).
  std::printf("generating %zu environmental reads...\n", num_reads);
  std::vector<bio::Sequence> queries;
  for (std::size_t i = 0; i < num_queries; ++i)
    queries.push_back(
        bio::make_benchmark_query(120 + 60 * (i % 5), 777 + i));

  auto profile = bio::DatabaseProfile::env_nr_like(num_reads);
  profile.homolog_fraction = 0.01;
  // Plant fragments of every query by generating per-query shards.
  std::vector<bio::Sequence> reads;
  for (std::size_t i = 0; i < num_queries; ++i) {
    bio::DatabaseGenerator gen(
        bio::DatabaseProfile::env_nr_like(num_reads / num_queries),
        1000 + i);
    auto shard = gen.generate(queries[i].residues);
    for (std::size_t s = 0; s < shard.size(); ++s)
      reads.push_back(shard.sequence(s));
  }
  const bio::SequenceDatabase db(std::move(reads));
  std::printf("database: %zu reads, %.1f average length, %.2f MB\n\n",
              db.size(), db.average_length(),
              static_cast<double>(db.total_residues()) / 1e6);

  const core::Config config = examples::config_from_options(options);
  core::SearchSession session(config, db);
  std::vector<std::span<const std::uint8_t>> spans;
  spans.reserve(queries.size());
  for (const auto& query : queries) spans.emplace_back(query.residues);
  const core::BatchReport batch = session.search_batch(spans);

  util::Table table({"query", "len", "hits", "best read", "bit score",
                     "e-value", "coverage"});
  double gpu_ms = 0.0;
  std::uint64_t degraded_blocks = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& query = queries[i];
    const auto& report = batch.reports[i];
    gpu_ms += report.gpu_critical_ms();
    degraded_blocks += report.degraded_blocks;
    if (report.result.alignments.empty()) {
      table.add_row({query.id, std::to_string(query.length()), "0", "-",
                     "-", "-", "-"});
      continue;
    }
    const auto& best = report.result.alignments.front();
    const double coverage =
        100.0 * static_cast<double>(best.q_end - best.q_start + 1) /
        static_cast<double>(query.length());
    char evalue[32];
    std::snprintf(evalue, sizeof evalue, "%.1e", best.evalue);
    table.add_row({query.id, std::to_string(query.length()),
                   std::to_string(report.result.alignments.size()),
                   db.id(best.seq), util::Table::num(best.bit_score, 1),
                   evalue,
                   util::Table::num(coverage, 0) + "%"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("annotated %zu queries in %.2f s host wall-clock, %.1f "
              "queries/s (modeled GPU critical time: %.2f ms; database "
              "uploaded once: %llu bytes, %.0f amortized bytes/query)\n",
              queries.size(), batch.batch_wall_seconds,
              batch.queries_per_second(), gpu_ms,
              static_cast<unsigned long long>(batch.h2d_block_bytes),
              batch.amortized_h2d_bytes_per_query());
  if (degraded_blocks != 0)
    std::fprintf(stderr,
                 "protein_annotation: %llu database blocks were served by "
                 "the CPU fallback (results stay complete)\n",
                 static_cast<unsigned long long>(degraded_blocks));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return repro::examples::run_tool("protein_annotation",
                                   [&] { return run(argc, argv); });
}
