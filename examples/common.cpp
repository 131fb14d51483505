#include "common.hpp"

#include <cstdio>
#include <exception>
#include <utility>

namespace repro::examples {

std::vector<bio::Sequence> load_fasta(const std::string& path, bool lenient,
                                      const char* tool) {
  const auto policy =
      lenient ? bio::FastaPolicy::kLenient : bio::FastaPolicy::kStrict;
  bio::FastaWarnings warnings;
  auto sequences = bio::read_fasta_file(path, policy, &warnings);
  if (warnings.total() != 0)
    std::fprintf(stderr,
                 "%s: lenient FASTA parse of %s: %llu unknown residues "
                 "mapped to X, %llu empty records skipped, %llu empty ids\n",
                 tool, path.c_str(),
                 static_cast<unsigned long long>(warnings.unknown_residues),
                 static_cast<unsigned long long>(
                     warnings.empty_records_skipped),
                 static_cast<unsigned long long>(warnings.empty_ids));
  return sequences;
}

bio::SequenceDatabase load_database(const std::string& path, bool lenient,
                                    const char* tool) {
  return bio::SequenceDatabase(load_fasta(path, lenient, tool));
}

core::Config config_from_options(const util::Options& options) {
  core::Config config;
  config.params.max_evalue = options.get_double("evalue", 10.0);
  config.cpu_threads = static_cast<std::size_t>(options.get_int("threads", 4));
  config.engine_workers =
      static_cast<int>(options.get_int("engine_workers", 1));
  // --shards=K runs each query across a modeled K-GPU fleet (clamped to
  // the block count; results are bit-identical at every K).
  config.shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, options.get_int("shards", 1)));
  const std::string strategy = options.get("strategy", "window");
  if (strategy == "diagonal")
    config.strategy = core::ExtensionStrategy::kDiagonal;
  else if (strategy == "hit")
    config.strategy = core::ExtensionStrategy::kHit;
  else
    config.strategy = core::ExtensionStrategy::kWindow;
  // --simtcheck runs every kernel under the hazard analyzer (racecheck/
  // synccheck/memcheck; env REPRO_SIMTCHECK=1 does the same).
  config.simtcheck = options.has("simtcheck");
  // --svccheck runs the host-side concurrency analyzer (lock-order graph,
  // blocked-while-locked waits, cancellation checkpoint coverage; env
  // REPRO_SVCCHECK=1 does the same).
  config.svccheck = options.has("svccheck");
  return config;
}

bool known_options_only(const util::Options& options,
                        std::vector<std::string_view> keys,
                        const char* tool) {
  const std::vector<std::string> unknown = options.unknown_keys(keys);
  for (const std::string& key : unknown)
    std::fprintf(stderr, "%s: unknown option --%s\n", tool, key.c_str());
  return unknown.empty();
}

int run_tool(const char* tool, const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace repro::examples
