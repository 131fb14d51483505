// Micro-benchmarks of the building blocks: lookup-table construction, DFA
// scan, ungapped/gapped extension, the SIMT primitives (device scan,
// segmented sort), and the makespan scheduler.
//
// Emits bench_results/micro_primitives.json (schema cublastp.bench.v1):
// each primitive contributes a deterministic work checksum — lookup entry
// counts, scan hit counts, extension scores, sort checksums — gated by
// scripts/check_bench_regression.py, plus its host wall-clock per
// iteration in the ungated measured section.
//
//   ./micro_primitives [--reps=N] [--quick] [--json_out=PATH]
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bio/generator.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/gapped.hpp"
#include "blast/seeding.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "common.hpp"
#include "gpualgo/scan.hpp"
#include "gpualgo/segsort.hpp"
#include "simt/device_buffer.hpp"
#include "util/makespan.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace repro;

/// Keeps the optimizer from deleting a benchmarked computation.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct Timing {
  util::Table& table;
  benchx::BenchResult& json;
  std::size_t reps;

  /// Times `reps` iterations of `body`, prints a table row, and records
  /// the per-iteration wall clock under `name` in the measured section.
  void run(const std::string& name, const std::function<void()>& body) {
    body();  // warm-up: first-touch allocations, lazy tables
    util::Timer timer;
    for (std::size_t i = 0; i < reps; ++i) body();
    const double ns_per_op =
        timer.seconds() * 1e9 / static_cast<double>(reps);
    table.add_row({name, util::Table::num(ns_per_op / 1e3, 2)});
    json.measured(name + "_us", ns_per_op / 1e3);
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Options options(argc, argv);
  const auto setup = benchx::BenchSetup::from_options(options);
  benchx::print_banner(
      "micro_primitives: host wall-clock of the building blocks",
      "not a paper figure: lookup build, DFA scan, extensions, device "
      "scan/segmented sort, makespan scheduler",
      setup);

  const auto reps = static_cast<std::size_t>(
      options.get_int("reps", options.has("quick") ? 10 : 40));

  benchx::BenchResult json("micro_primitives",
                           benchx::default_cublastp_config(), setup);
  util::Table table({"primitive", "us/op"});
  Timing timing{table, json, reps};
  const blast::SearchParams params;

  // --- word-lookup construction (short / medium / long query) ------------
  for (const std::size_t len : benchx::kQueryLengths) {
    const auto query = bio::make_benchmark_query(len).residues;
    std::uint64_t entries = 0;
    timing.run("wordlookup_build_q" + std::to_string(len), [&] {
      const blast::WordLookup lookup(query, bio::Blosum62::instance(),
                                     params);
      entries = lookup.total_entries();
      do_not_optimize(entries);
    });
    json.deterministic("wordlookup_entries_q" + std::to_string(len),
                       entries);
  }

  // --- DFA subject scan --------------------------------------------------
  {
    const auto query = bio::make_benchmark_query(517).residues;
    const blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
    const blast::Dfa dfa(lookup);
    util::Rng rng(7);
    for (const std::size_t subject_len : {370u, 2000u}) {
      const auto subject = bio::random_protein(subject_len, rng);
      std::uint64_t hits = 0;
      timing.run("dfa_scan_s" + std::to_string(subject_len), [&] {
        hits = 0;
        blast::scan_subject_dfa(dfa, subject,
                                [&](std::uint32_t, std::uint32_t) { ++hits; });
        do_not_optimize(hits);
      });
      json.deterministic("dfa_hits_s" + std::to_string(subject_len), hits);
    }
  }

  // --- ungapped extension (self-alignment diagonal: a real homologous
  // seed, so the extension runs long and the score checksum is nonzero) --
  {
    const auto query = bio::make_benchmark_query(517).residues;
    const bio::Pssm pssm(query, bio::Blosum62::instance());
    std::int64_t score = 0;
    timing.run("ungapped_extension", [&] {
      const auto ext = blast::extend_ungapped(pssm, query, 0, 100, 100,
                                              params);
      score = ext.score;
      do_not_optimize(score);
    });
    json.deterministic("ungapped_score",
                       static_cast<std::uint64_t>(score < 0 ? 0 : score));
  }

  // --- gapped extension: the recorded DP, and the DP plus its walk-back --
  {
    util::Rng rng(13);
    auto query = bio::random_protein(400, rng);
    auto subject = bio::random_protein(80, rng);
    auto fragment = bio::mutate_fragment(std::span(query).subspan(100, 200),
                                         0.2, 0.03, rng);
    subject.insert(subject.begin() + 40, fragment.begin(), fragment.end());
    const bio::Pssm pssm(query, bio::Blosum62::instance());

    std::int64_t score = 0;
    std::uint64_t cells = 0;
    timing.run("gapped_score", [&] {
      const auto out = blast::gapped_score(pssm, subject, 200, 140, params);
      score = out.score;
      cells = out.cells;
      do_not_optimize(score);
    });
    json.deterministic("gapped_score",
                       static_cast<std::uint64_t>(score < 0 ? 0 : score));
    json.deterministic("gapped_cells", cells);

    std::int64_t tb_score = 0;
    std::uint64_t tb_length = 0;
    timing.run("gapped_traceback", [&] {
      const auto alignment =
          blast::gapped_traceback(pssm, subject, 0, 200, 140, params);
      tb_score = alignment.score;
      tb_length = alignment.q_end - alignment.q_start;
      do_not_optimize(tb_score);
    });
    json.deterministic(
        "traceback_score",
        static_cast<std::uint64_t>(tb_score < 0 ? 0 : tb_score));
    json.deterministic("traceback_query_span", tb_length);
  }

  // --- device exclusive scan ---------------------------------------------
  for (const std::size_t n : {1024u, 16384u}) {
    simt::DeviceVector<std::uint32_t> input(n, 3);
    std::uint64_t back = 0;
    timing.run("device_scan_n" + std::to_string(n), [&] {
      simt::Engine engine;
      const auto out = gpualgo::exclusive_scan_device(engine, input);
      back = out.back();
      do_not_optimize(back);
    });
    json.deterministic("device_scan_back_n" + std::to_string(n), back);
  }

  // --- device segmented sort ---------------------------------------------
  for (const int segments : {64, 512}) {
    util::Rng rng(19);
    std::vector<std::uint64_t> master;
    std::vector<std::uint32_t> offsets{0};
    for (int s = 0; s < segments; ++s) {
      const std::size_t n = rng.below(128);
      const std::uint32_t padded =
          n == 0 ? 0 : gpualgo::next_pow2(static_cast<std::uint32_t>(n));
      for (std::size_t i = 0; i < padded; ++i)
        master.push_back(i < n ? (rng() >> 1) : gpualgo::kSortPad);
      offsets.push_back(static_cast<std::uint32_t>(master.size()));
    }
    std::uint64_t checksum = 0;
    timing.run("segmented_sort_seg" + std::to_string(segments), [&] {
      auto data = master;
      simt::Engine engine;
      gpualgo::segmented_sort_u64(engine, data, offsets);
      checksum = 0;
      for (std::size_t i = 0; i < data.size(); ++i)
        checksum += data[i] * (i + 1);  // order-sensitive: pins sortedness
      do_not_optimize(checksum);
    });
    json.deterministic("segsort_checksum_seg" + std::to_string(segments),
                       checksum);
  }

  // --- makespan list scheduler -------------------------------------------
  {
    util::Rng rng(23);
    std::vector<double> costs(10000);
    for (auto& c : costs) c = rng.uniform();
    double makespan = 0.0;
    timing.run("makespan_schedule", [&] {
      makespan = util::list_schedule_makespan(costs, 4);
      do_not_optimize(makespan);
    });
    json.deterministic("makespan_4workers", makespan);
  }

  // --- PSSM build ---------------------------------------------------------
  {
    const auto query = bio::make_benchmark_query(1054).residues;
    std::uint64_t bytes = 0;
    timing.run("pssm_build_q1054", [&] {
      bio::Pssm pssm(query, bio::Blosum62::instance());
      bytes = pssm.device_bytes();
      do_not_optimize(bytes);
    });
    json.deterministic("pssm_device_bytes_q1054", bytes);
  }

  // --- Karlin-Altschul lambda solve ---------------------------------------
  {
    double lambda = 0.0;
    timing.run("karlin_lambda_solve", [&] {
      lambda = bio::solve_ungapped_lambda(bio::Blosum62::instance(),
                                          bio::background_frequencies());
      do_not_optimize(lambda);
    });
    json.deterministic("karlin_ungapped_lambda", lambda);
  }

  std::printf("%s", table.render().c_str());
  return json.write(options, "bench_results/micro_primitives.json");
}
