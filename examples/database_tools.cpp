// Database tools: generate a synthetic protein database to FASTA, or
// inspect an existing FASTA database (length distribution, residue
// composition) — the utilities used to stand in for the NCBI downloads
// this reproduction cannot fetch.
//
//   ./database_tools generate --out=db.fasta [--seqs=N] [--env_nr]
//                             [--plant_query_len=N]
//   ./database_tools query    --out=q.fasta [--len=N]
//   ./database_tools inspect --in=db.fasta [--lenient]
//
// "query" writes the deterministic benchmark query of the given length —
// the same sequence `generate --plant_query_len=N` plants homologs of, so
// the pair gives an end-to-end search with guaranteed hits.
#include <cstdio>

#include <array>
#include <exception>

#include "bio/alphabet.hpp"
#include "bio/fasta.hpp"
#include "bio/generator.hpp"
#include "common.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  util::Options options(argc, argv);
  if (!examples::known_options_only(options,
                                    {"seqs", "env_nr", "seed",
                                     "plant_query_len", "out", "len", "in",
                                     "lenient"},
                                    "database_tools"))
    return 2;
  const auto& positional = options.positional();
  const std::string mode = positional.empty() ? "generate" : positional[0];

  if (mode == "generate") {
    const auto seqs = static_cast<std::size_t>(options.get_int("seqs", 1000));
    auto profile = options.has("env_nr")
                       ? bio::DatabaseProfile::env_nr_like(seqs)
                       : bio::DatabaseProfile::swissprot_like(seqs);
    bio::DatabaseGenerator gen(
        profile, static_cast<std::uint64_t>(options.get_int("seed", 1)));
    std::vector<std::uint8_t> query;
    if (options.has("plant_query_len")) {
      query = bio::make_benchmark_query(static_cast<std::size_t>(
                                            options.get_int(
                                                "plant_query_len", 517)))
                  .residues;
    }
    const auto db = gen.generate(query);
    std::vector<bio::Sequence> records;
    records.reserve(db.size());
    for (std::size_t i = 0; i < db.size(); ++i)
      records.push_back(db.sequence(i));
    const std::string out = options.get("out", "db.fasta");
    bio::write_fasta_file(out, records);
    std::printf("wrote %zu sequences (%.2f MB of residues) to %s\n",
                db.size(), static_cast<double>(db.total_residues()) / 1e6,
                out.c_str());
    return 0;
  }

  if (mode == "query") {
    const auto len =
        static_cast<std::size_t>(options.get_int("len", 517));
    const bio::Sequence query = bio::make_benchmark_query(len);
    const std::string out = options.get("out", "query.fasta");
    bio::write_fasta_file(out, {query});
    std::printf("wrote query %s (%zu letters) to %s\n", query.id.c_str(),
                query.length(), out.c_str());
    return 0;
  }

  if (mode == "inspect") {
    const std::string in = options.get("in", "db.fasta");
    const auto policy = options.has("lenient") ? bio::FastaPolicy::kLenient
                                               : bio::FastaPolicy::kStrict;
    bio::FastaWarnings warnings;
    const bio::SequenceDatabase db(
        bio::read_fasta_file(in, policy, &warnings));
    if (warnings.total() != 0)
      std::fprintf(stderr,
                   "database_tools: lenient parse: %llu unknown residues "
                   "mapped to X, %llu empty records skipped, %llu empty "
                   "ids\n",
                   static_cast<unsigned long long>(warnings.unknown_residues),
                   static_cast<unsigned long long>(
                       warnings.empty_records_skipped),
                   static_cast<unsigned long long>(warnings.empty_ids));
    std::printf("%s: %zu sequences, %llu residues, average length %.1f, "
                "max %zu\n\n",
                in.c_str(), db.size(),
                static_cast<unsigned long long>(db.total_residues()),
                db.average_length(), db.max_length());

    util::Histogram lengths(0, 2000, 20);
    std::array<double, bio::kAlphabetSize> composition{};
    for (std::size_t i = 0; i < db.size(); ++i) {
      lengths.add(static_cast<double>(db.length(i)));
      for (const auto r : db.residues(i)) composition[r] += 1.0;
    }
    std::printf("length distribution:\n%s\n", lengths.render(40).c_str());
    std::printf("residue composition (top rows):\n");
    for (int aa = 0; aa < bio::kNumRealAminoAcids; ++aa)
      std::printf("  %c: %5.2f%%\n", bio::decode_letter(
                                         static_cast<std::uint8_t>(aa)),
                  100.0 * composition[static_cast<std::size_t>(aa)] /
                      static_cast<double>(db.total_residues()));
    return 0;
  }

  std::fprintf(stderr,
               "usage: database_tools generate|query|inspect [options]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "database_tools: error: %s\n", e.what());
    return 1;
  }
}
