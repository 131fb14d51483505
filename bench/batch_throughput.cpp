// Batch throughput: the SearchSession generalization of the paper's
// Fig. 12 overlap across queries. One session answers a stream of queries
// against a resident database — the upload is paid once, and the modeled
// pipeline overlaps query q+1's GPU phases with query q's CPU gapped stage
// — versus the one-shot CuBlastp::search path, which pays a fresh engine
// and a full database upload per query.
//
//   ./batch_throughput [--swissprot=N] [--seed=S] [--quick]
//                      [--json_out=PATH]
//
// Writes bench_results/batch_throughput.json: for batch sizes 1/4/16,
// measured queries/sec and amortized h2d bytes plus the modeled batched
// vs sequential pipeline seconds (the acceptance signal: batch-16 beats
// 16 sequential searches on the modeled pipeline).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "core/search_session.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  using namespace repro::benchx;

  util::Options options(argc, argv);
  const auto setup = BenchSetup::from_options(options);
  print_banner("batch_throughput",
               "Fig. 12's CPU/GPU overlap, generalized across the queries "
               "of one batch; database upload amortized by the session",
               setup);

  const auto w = make_workload(setup, 127, /*env_nr=*/false);
  constexpr std::size_t kMaxBatch = 16;
  std::vector<std::vector<std::uint8_t>> queries;
  for (std::size_t i = 0; i < kMaxBatch; ++i)
    queries.push_back(
        bio::make_benchmark_query(kQueryLengths[i % 3], setup.seed + i)
            .residues);

  const core::Config config = default_cublastp_config();

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n  \"bench\": \"batch_throughput\",\n";
  json << "  \"provenance\": " << provenance_json(config) << ",\n";
  json << "  \"workload\": {\"db\": \"" << w.db_name
       << "\", \"db_seqs\": " << w.db.size()
       << ", \"query_lengths\": [127, 517, 1054]},\n";
  json << "  \"batches\": [\n";

  util::Table table({"batch", "wall (s)", "queries/s", "h2d bytes/query",
                     "modeled batch (ms)", "modeled sequential (ms)",
                     "modeled speedup"});
  bool batch16_wins = true;
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4},
                                       std::size_t{16}}) {
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t i = 0; i < batch_size; ++i)
      spans.emplace_back(queries[i]);

    // Each batch size gets a fresh session so every row pays exactly one
    // database upload (amortized over batch_size queries).
    core::SearchSession session(config, w.db);
    util::Timer timer;
    const core::BatchReport batch = session.search_batch(spans);
    const double wall_s = timer.seconds();

    // The measured one-shot comparison: N independent searches, each with
    // its own engine and full upload.
    util::Timer seq_timer;
    std::size_t sequential_alignments = 0;
    for (std::size_t i = 0; i < batch_size; ++i)
      sequential_alignments += core::CuBlastp(config)
                                   .search(spans[i], w.db)
                                   .result.alignments.size();
    const double sequential_wall_s = seq_timer.seconds();

    std::size_t batch_alignments = 0;
    for (const auto& report : batch.reports)
      batch_alignments += report.result.alignments.size();
    if (batch_alignments != sequential_alignments)
      std::fprintf(stderr,
                   "batch_throughput: WARNING batch and sequential "
                   "alignment counts differ (%zu vs %zu)\n",
                   batch_alignments, sequential_alignments);
    if (batch_size == 16 &&
        batch.modeled_batch_seconds >= batch.modeled_sequential_seconds)
      batch16_wins = false;

    table.add_row({std::to_string(batch_size), util::Table::num(wall_s, 3),
                   util::Table::num(batch.queries_per_second(), 1),
                   util::Table::num(batch.amortized_h2d_bytes_per_query(), 0),
                   util::Table::num(batch.modeled_batch_seconds * 1e3, 2),
                   util::Table::num(batch.modeled_sequential_seconds * 1e3, 2),
                   util::Table::num(batch.modeled_speedup(), 4)});

    if (batch_size != 1) json << ",\n";
    json << "    {\"batch_size\": " << batch_size
         << ", \"host_wall_s\": " << wall_s
         << ", \"sequential_host_wall_s\": " << sequential_wall_s
         << ", \"queries_per_second\": " << batch.queries_per_second()
         << ", \"amortized_h2d_bytes_per_query\": "
         << batch.amortized_h2d_bytes_per_query()
         << ", \"h2d_block_bytes\": " << batch.h2d_block_bytes
         << ", \"db_device_bytes\": " << batch.db_device_bytes
         << ", \"modeled_batch_s\": " << batch.modeled_batch_seconds
         << ", \"modeled_sequential_s\": " << batch.modeled_sequential_seconds
         << ", \"modeled_speedup\": " << batch.modeled_speedup()
         << ", \"alignments\": " << batch_alignments << "}";
  }
  json << "\n  ]\n}\n";

  std::printf("%s\n", table.render().c_str());
  std::printf("batch-16 beats 16 sequential searches on the modeled "
              "pipeline: %s\n",
              batch16_wins ? "yes" : "NO");

  const std::string out_path =
      options.get("json_out", "bench_results/batch_throughput.json");
  const std::filesystem::path path(out_path);
  if (path.has_parent_path()) {
    std::error_code dir_error;
    std::filesystem::create_directories(path.parent_path(), dir_error);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return batch16_wins ? 0 : 1;
}
