#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gpualgo/segsort.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace repro::benchx {

BenchSetup BenchSetup::from_options(const util::Options& options) {
  BenchSetup setup;
  setup.swissprot_seqs = static_cast<std::size_t>(
      options.get_int("swissprot", static_cast<std::int64_t>(
                                       setup.swissprot_seqs)));
  setup.env_nr_seqs = static_cast<std::size_t>(
      options.get_int("env_nr", static_cast<std::int64_t>(
                                    setup.env_nr_seqs)));
  setup.seed = static_cast<std::uint64_t>(options.get_int(
      "seed", static_cast<std::int64_t>(setup.seed)));
  if (options.has("quick")) {
    setup.swissprot_seqs = std::max<std::size_t>(50, setup.swissprot_seqs / 4);
    setup.env_nr_seqs = std::max<std::size_t>(100, setup.env_nr_seqs / 4);
  }
  return setup;
}

Workload make_workload(const BenchSetup& setup, std::size_t query_length,
                       bool env_nr) {
  Workload w;
  const auto query = bio::make_benchmark_query(query_length);
  w.query_name = query.id;
  w.query = query.residues;
  auto profile =
      env_nr ? bio::DatabaseProfile::env_nr_like(setup.env_nr_seqs)
             : bio::DatabaseProfile::swissprot_like(setup.swissprot_seqs);
  // Benchmark workloads use a sparser homology density than the generator
  // default so that, as on the paper's real NCBI data, the critical phases
  // dominate the profile rather than the gapped stage.
  profile.homolog_fraction = env_nr ? 0.002 : 0.004;
  w.db_name = profile.name;
  bio::DatabaseGenerator gen(profile,
                             setup.seed ^ (env_nr ? 0xE01ULL : 0x501ULL) ^
                                 query_length);
  w.db = gen.generate(w.query);
  return w;
}

core::Config default_cublastp_config() { return core::Config{}; }

baselines::CoarseConfig default_coarse_config() {
  baselines::CoarseConfig config;
  config.grid_blocks = 8;
  config.block_threads = 128;
  config.db_blocks = 4;
  config.block_output_capacity = 1 << 15;
  return config;
}

void print_banner(const std::string& figure, const std::string& paper_claim,
                  const BenchSetup& setup) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper reports: %s\n", paper_claim.c_str());
  std::printf("Workload scale: swissprot-like %zu seqs, env_nr-like %zu seqs, "
              "seed %llu\n",
              setup.swissprot_seqs, setup.env_nr_seqs,
              static_cast<unsigned long long>(setup.seed));
  std::printf("(GPU times are modeled on a simulated K20c; CPU times are\n"
              " host-measured with T-worker makespan scheduling. Compare\n"
              " shapes and ratios, not absolute values. See EXPERIMENTS.md.)\n");
  std::printf("================================================================\n");
}

std::string provenance_json(const core::Config& config) {
#ifndef REPRO_GIT_SHA
#define REPRO_GIT_SHA "unknown"
#endif
#ifndef REPRO_BUILD_TYPE
#define REPRO_BUILD_TYPE "unknown"
#endif
  const char* strategy = "window";
  if (config.strategy == core::ExtensionStrategy::kDiagonal)
    strategy = "diagonal";
  else if (config.strategy == core::ExtensionStrategy::kHit)
    strategy = "hit";
  const char* scoring = "auto";
  if (config.scoring == core::ScoringMode::kPssm)
    scoring = "pssm";
  else if (config.scoring == core::ScoringMode::kBlosum)
    scoring = "blosum";
  const auto& p = config.params;
  // The FULL effective config: a result file found later must be
  // reproducible from its own provenance, not the shell history. Every
  // tunable that can change a measurement is embedded.
  std::ostringstream json;
  json << "{\"git_sha\": \"" << REPRO_GIT_SHA << "\", \"build_type\": \""
       << REPRO_BUILD_TYPE << "\", \"compiler\": \"" << __VERSION__
       << "\", \"config\": {\"engine_workers\": " << config.engine_workers
       << ", \"num_bins_per_warp\": " << config.num_bins_per_warp
       << ", \"strategy\": \"" << strategy << "\", \"scoring\": \"" << scoring
       << "\", \"window_size\": " << config.window_size
       << ", \"readonly_cache\": "
       << (config.use_readonly_cache ? "true" : "false")
       << ", \"db_blocks\": " << config.db_blocks
       << ", \"cpu_threads\": " << config.cpu_threads
       << ", \"detection_blocks\": " << config.detection_blocks
       << ", \"bin_capacity\": " << config.bin_capacity
       << ", \"max_bin_retries\": " << config.max_bin_retries
       << ", \"max_bin_capacity\": " << config.max_bin_capacity
       << ", \"auto_pssm_max_query\": " << config.auto_pssm_max_query
       << ", \"simtcheck\": " << (config.simtcheck ? "true" : "false")
       << ", \"svccheck\": " << (config.svccheck ? "true" : "false")
       << ", \"params\": {\"word_length\": " << p.word_length
       << ", \"neighbor_threshold\": " << p.neighbor_threshold
       << ", \"two_hit_window\": " << p.two_hit_window
       << ", \"ungapped_xdrop\": " << p.ungapped_xdrop
       << ", \"ungapped_cutoff\": " << p.ungapped_cutoff
       << ", \"gapped_xdrop\": " << p.gapped_xdrop
       << ", \"gap_open\": " << p.gap_open
       << ", \"gap_extend\": " << p.gap_extend
       << ", \"max_evalue\": " << p.max_evalue
       << ", \"one_hit\": " << (p.one_hit ? "true" : "false") << "}}}";
  return json.str();
}

BenchResult::BenchResult(std::string bench_name, const core::Config& config,
                         const BenchSetup& setup)
    : bench_name_(std::move(bench_name)),
      provenance_(provenance_json(config)),
      setup_(setup) {}

void BenchResult::set_workload(const Workload& workload) {
  std::ostringstream json;
  json << "{\"query\": \"" << workload.query_name << "\", \"db\": \""
       << workload.db_name << "\", \"db_seqs\": " << workload.db.size()
       << "}";
  workload_ = json.str();
}

namespace {
std::string format_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}
}  // namespace

void BenchResult::deterministic(const std::string& key, double value) {
  deterministic_.emplace_back(key, format_double(value));
}
void BenchResult::deterministic(const std::string& key, std::uint64_t value) {
  deterministic_.emplace_back(key, std::to_string(value));
}
void BenchResult::deterministic_raw(const std::string& key,
                                    const std::string& json) {
  deterministic_.emplace_back(key, json);
}
void BenchResult::measured(const std::string& key, double value) {
  measured_.emplace_back(key, format_double(value));
}
void BenchResult::measured_raw(const std::string& key,
                               const std::string& json) {
  measured_.emplace_back(key, json);
}

std::string BenchResult::to_json() const {
  std::ostringstream json;
  json << "{\n  \"schema\": \"cublastp.bench.v1\",\n";
  json << "  \"bench\": \"" << bench_name_ << "\",\n";
  json << "  \"provenance\": " << provenance_ << ",\n";
  json << "  \"scale\": {\"swissprot_seqs\": " << setup_.swissprot_seqs
       << ", \"env_nr_seqs\": " << setup_.env_nr_seqs
       << ", \"seed\": " << setup_.seed << "},\n";
  if (!workload_.empty()) json << "  \"workload\": " << workload_ << ",\n";
  auto emit_section = [&](const char* name, const auto& entries) {
    json << "  \"" << name << "\": {";
    bool first = true;
    for (const auto& [key, value] : entries) {
      if (!first) json << ",";
      json << "\n    \"" << key << "\": " << value;
      first = false;
    }
    json << (entries.empty() ? "}" : "\n  }");
  };
  emit_section("deterministic", deterministic_);
  json << ",\n";
  emit_section("measured", measured_);
  json << "\n}\n";
  return json.str();
}

int BenchResult::write(const util::Options& options,
                       const std::string& default_path) const {
  const std::string out_path = options.get("json_out", default_path);
  const std::filesystem::path path(out_path);
  std::error_code dir_error;
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path(), dir_error);
  std::ofstream out(path);
  if (dir_error || !out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << to_json();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int run_engine_wallclock_json(const util::Options& options,
                              const BenchSetup& setup,
                              const std::string& bench_name) {
  const std::string out_path =
      options.get("json_out", "bench_results/engine_wallclock.json");
  const int repetitions =
      std::max(1, static_cast<int>(options.get_int("json_reps", 3)));
  const auto w = make_workload(setup, 127, false);

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n";
  json << "  \"bench\": \"" << bench_name << "\",\n";
  json << "  \"provenance\": " << provenance_json(default_cublastp_config())
       << ",\n";
  json << "  \"workload\": {\"query\": \"" << w.query_name
       << "\", \"db\": \"" << w.db_name << "\", \"db_seqs\": " << w.db.size()
       << "},\n";
  json << "  \"repetitions\": " << repetitions << ",\n";
  json << "  \"runs\": [\n";

  double serial_best_s = 0.0;
  bool first = true;
  for (const int workers : {1, 2, 4}) {
    auto config = default_cublastp_config();
    config.engine_workers = workers;
    const core::CuBlastp engine(config);
    double best_s = 0.0;
    double modeled_gpu_ms = 0.0;
    std::size_t alignments = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      util::Timer timer;
      const auto report = engine.search(w.query, w.db);
      const double wall_s = timer.seconds();
      if (rep == 0 || wall_s < best_s) best_s = wall_s;
      modeled_gpu_ms = report.gpu_critical_ms();
      alignments = report.result.alignments.size();
    }
    if (workers == 1) serial_best_s = best_s;
    if (!first) json << ",\n";
    first = false;
    json << "    {\"engine_workers\": " << workers
         << ", \"host_wall_s\": " << best_s
         << ", \"modeled_gpu_ms\": " << modeled_gpu_ms
         << ", \"alignments\": " << alignments << "}";
    std::printf("engine_workers=%d: host wall %.3f s (best of %d), "
                "modeled GPU %.3f ms\n",
                workers, best_s, repetitions, modeled_gpu_ms);
  }
  json << "\n  ]";

  // Engine-only microkernel (the BM_SegmentedSort/512 workload): the full
  // pipeline above mixes host-measured CPU phases into the wall-clock, so
  // this isolates the SIMT execution hot path, where the de-type-erased
  // dispatch shows.
  {
    util::Rng rng(19);
    std::vector<std::uint64_t> master;
    std::vector<std::uint32_t> offsets{0};
    for (int s = 0; s < 512; ++s) {
      const std::size_t n = rng.below(128);
      const std::uint32_t padded =
          n == 0 ? 0 : gpualgo::next_pow2(static_cast<std::uint32_t>(n));
      for (std::size_t i = 0; i < padded; ++i)
        master.push_back(i < n ? (rng() >> 1) : gpualgo::kSortPad);
      offsets.push_back(static_cast<std::uint32_t>(master.size()));
    }
    double micro_best_s = 0.0;
    for (int rep = 0; rep < repetitions; ++rep) {
      auto data = master;
      simt::Engine engine;
      util::Timer timer;
      gpualgo::segmented_sort_u64(engine, data, offsets);
      const double wall_s = timer.seconds();
      if (rep == 0 || wall_s < micro_best_s) micro_best_s = wall_s;
    }
    json << ",\n  \"engine_micro\": {\"kernel\": \"segmented_sort_u64\", "
         << "\"segments\": 512, \"host_wall_s\": " << micro_best_s;
    std::printf("engine-only segmented_sort_u64/512: host wall %.4f s "
                "(best of %d)\n",
                micro_best_s, repetitions);
    const double baseline_engine_s =
        options.get_double("baseline_engine_s", 0.0);
    if (baseline_engine_s > 0.0 && micro_best_s > 0.0) {
      json << ", \"pre_change_host_wall_s\": " << baseline_engine_s
           << ", \"speedup_vs_pre_change\": "
           << baseline_engine_s / micro_best_s;
      std::printf("engine-only speedup vs pre-change binary: %.2fx\n",
                  baseline_engine_s / micro_best_s);
    }
    json << "}";
  }

  // A pre-change measurement (same workload, pre-PR binary) lets the file
  // carry the de-type-erasure speedup for the perf trajectory.
  const double baseline_s = options.get_double("baseline_wall_s", 0.0);
  if (baseline_s > 0.0 && serial_best_s > 0.0) {
    json << ",\n  \"pre_change_serial_wall_s\": " << baseline_s;
    json << ",\n  \"serial_speedup_vs_pre_change\": "
         << baseline_s / serial_best_s;
    std::printf("full-pipeline serial speedup vs pre-change binary: %.2fx\n",
                baseline_s / serial_best_s);
  }
  json << "\n}\n";

  const std::filesystem::path path(out_path);
  std::error_code dir_error;
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path(), dir_error);
  std::ofstream out(path);
  if (dir_error || !out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace repro::benchx
