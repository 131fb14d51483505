#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "bio/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using repro::bio::DatabaseProfile;
using repro::bio::Sequence;
using repro::bio::SequenceDatabase;
using repro::util::Rng;

/// Subjects without homologs, with bio::DatabaseGenerator's length and
/// residue distributions, except that the lengths are rescaled so the
/// database holds exactly num_sequences x mean_length residues. The seed
/// then moves what the subjects contain but not how much device work they
/// make: on 100 subjects, unscaled sizes moved device time by 7% from seed
/// to seed. plant() adds an exact number of homologs for the same reason.
std::vector<Sequence> background(const DatabaseProfile& profile, Rng& rng) {
  const double scale = profile.mean_length / profile.length_shape;
  std::vector<double> lengths(profile.num_sequences);
  double total = 0.0;
  for (double& length : lengths) {
    length = rng.gamma(profile.length_shape, scale);
    total += length;
  }
  const double target =
      profile.mean_length * static_cast<double>(profile.num_sequences);
  std::vector<Sequence> seqs(profile.num_sequences);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const auto length = std::clamp(
        static_cast<std::size_t>(std::lround(lengths[i] * target / total)),
        profile.min_length, profile.max_length);
    seqs[i].id = profile.name + "_" + std::to_string(i);
    seqs[i].residues = repro::bio::random_protein(length, rng);
  }
  return seqs;
}

std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// Splices a mutated half of `query` (25% substitutions, 2% indels, as
/// bio::DatabaseGenerator mutates its plants) into `count` subjects taken
/// from the back of `order`. The fragment length is fixed, unlike the
/// generator's, so the seed moves where the homologs are but not how much
/// gapped and traceback work they make.
void plant(std::vector<Sequence>& seqs, std::vector<std::size_t>& order,
           std::span<const std::uint8_t> query, std::size_t count, Rng& rng) {
  const std::size_t frag_len =
      std::max(std::min<std::size_t>(30, query.size()), query.size() / 2);
  for (std::size_t k = 0; k < count && !order.empty(); ++k) {
    Sequence& subject = seqs[order.back()];
    order.pop_back();
    const auto frag_start =
        static_cast<std::size_t>(rng.below(query.size() - frag_len + 1));
    const auto fragment = repro::bio::mutate_fragment(
        query.subspan(frag_start, frag_len), 0.25, 0.02, rng);
    const auto at =
        static_cast<std::ptrdiff_t>(rng.below(subject.residues.size() + 1));
    subject.residues.insert(subject.residues.begin() + at, fragment.begin(),
                            fragment.end());
    subject.description = "planted_homolog";
  }
}

/// A family member of `base`: substitutions only, so the length is kept.
std::vector<std::uint8_t> variant(std::span<const std::uint8_t> base,
                                  double rate, Rng& rng) {
  return repro::bio::mutate_fragment(base, rate, 0.0, rng);
}

/// The paper's benchmark query of this length, the one every figure bench
/// searches with. It does not depend on the seed: the seed generates the
/// database, the planted homologs and the query variants, so a run's
/// numbers move with the database, not with a different query.
std::vector<std::uint8_t> benchmark_query(std::size_t length) {
  return repro::bio::make_benchmark_query(length).residues;
}

/// The paper's headline setting: env_nr-like subjects, the three benchmark
/// query lengths, 0.002 of the database planted per query (as in the
/// figure benches' make_workload).
Workload env_mix(std::uint64_t seed) {
  Workload w;
  w.name = "env_mix";
  w.description =
      "env_nr-like 1500 seqs, queries 127/517/1054 with 3 planted homologs "
      "each, closed loop of one caller";
  Rng rng(seed ^ 0xE01ULL);
  for (const std::size_t length : {127, 517, 1054})
    w.queries.push_back(benchmark_query(length));
  auto seqs = background(DatabaseProfile::env_nr_like(1500), rng);
  auto order = shuffled_indices(seqs.size(), rng);
  for (const auto& query : w.queries) plant(seqs, order, query, 3, rng);
  w.db = SequenceDatabase(std::move(seqs));
  return w;
}

/// Prep-heavy: long queries that share most of their neighbour words,
/// against a database small enough that kernel work is a few percent.
Workload small_db(std::uint64_t seed) {
  Workload w;
  w.name = "small_db";
  w.description =
      "swissprot-like 100 seqs, 8 variants (10% substitutions) of one "
      "1054-residue query, closed loop of one caller";
  Rng rng(seed ^ 0x5DBULL);
  const auto base = benchmark_query(1054);
  for (int i = 0; i < 8; ++i) w.queries.push_back(variant(base, 0.10, rng));
  auto seqs = background(DatabaseProfile::swissprot_like(100), rng);
  auto order = shuffled_indices(seqs.size(), rng);
  plant(seqs, order, base, 2, rng);
  w.db = SequenceDatabase(std::move(seqs));
  return w;
}

/// Output-heavy: a fifth of the subjects carry a homolog of the family, so
/// gapped extension and traceback dominate.
Workload dense_family(std::uint64_t seed) {
  Workload w;
  w.name = "dense_family";
  w.description =
      "swissprot-like 400 seqs, 80 planted homologs of one 517-residue "
      "family, 4 family queries, closed loop of one caller";
  Rng rng(seed ^ 0xDFULL);
  const auto base = benchmark_query(517);
  w.queries.push_back(base);
  for (int i = 0; i < 3; ++i) w.queries.push_back(variant(base, 0.10, rng));
  auto seqs = background(DatabaseProfile::swissprot_like(400), rng);
  auto order = shuffled_indices(seqs.size(), rng);
  plant(seqs, order, base, 80, rng);
  w.db = SequenceDatabase(std::move(seqs));
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "env_mix") return env_mix(seed);
  if (name == "small_db") return small_db(seed);
  if (name == "dense_family") return dense_family(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
