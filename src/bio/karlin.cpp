#include "bio/karlin.hpp"

#include <cmath>
#include <stdexcept>

namespace repro::bio {

KarlinParams blosum62_ungapped() { return {0.3176, 0.134, 0.4012}; }

KarlinParams blosum62_gapped_11_1() { return {0.267, 0.041, 0.14}; }

namespace {

/// sum_ij p_i p_j exp(lambda * s_ij) over the standard amino acids.
double restriction_sum(const Blosum62& matrix,
                       const std::array<double, kAlphabetSize>& freqs,
                       double lambda) {
  double sum = 0.0;
  for (int i = 0; i < kNumRealAminoAcids; ++i)
    for (int j = 0; j < kNumRealAminoAcids; ++j)
      sum += freqs[static_cast<std::size_t>(i)] *
             freqs[static_cast<std::size_t>(j)] *
             std::exp(lambda * matrix.score(static_cast<std::uint8_t>(i),
                                            static_cast<std::uint8_t>(j)));
  return sum;
}

}  // namespace

double solve_ungapped_lambda(
    const Blosum62& matrix, const std::array<double, kAlphabetSize>& freqs) {
  // Validate preconditions: E[s] < 0 and max s > 0.
  double expected = 0.0;
  int max_score = -1000;
  for (int i = 0; i < kNumRealAminoAcids; ++i)
    for (int j = 0; j < kNumRealAminoAcids; ++j) {
      const int s = matrix.score(static_cast<std::uint8_t>(i),
                                 static_cast<std::uint8_t>(j));
      expected += freqs[static_cast<std::size_t>(i)] *
                  freqs[static_cast<std::size_t>(j)] * s;
      max_score = std::max(max_score, s);
    }
  if (expected >= 0.0 || max_score <= 0)
    throw std::domain_error(
        "Karlin-Altschul lambda undefined: need E[s] < 0 and max s > 0");

  // f(lambda) = sum p_i p_j e^{lambda s_ij} - 1 is convex with f(0)=0,
  // f'(0)=E[s]<0 and f(+inf)=+inf, so the positive root is unique; bracket
  // then bisect.
  double hi = 0.5;
  while (restriction_sum(matrix, freqs, hi) < 1.0) hi *= 2.0;
  double lo = 0.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (restriction_sum(matrix, freqs, mid) < 1.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

double relative_entropy(const Blosum62& matrix,
                        const std::array<double, kAlphabetSize>& freqs,
                        double lambda) {
  double h = 0.0;
  for (int i = 0; i < kNumRealAminoAcids; ++i)
    for (int j = 0; j < kNumRealAminoAcids; ++j) {
      const int s = matrix.score(static_cast<std::uint8_t>(i),
                                 static_cast<std::uint8_t>(j));
      const double q = freqs[static_cast<std::size_t>(i)] *
                       freqs[static_cast<std::size_t>(j)] *
                       std::exp(lambda * s);
      h += q * lambda * s;
    }
  return h;
}

EvalueCalculator::EvalueCalculator(KarlinParams params,
                                   std::size_t query_length,
                                   std::uint64_t db_residues,
                                   std::size_t db_sequences)
    : params_(params) {
  // BLAST's length adjustment: expected HSP length l = ln(K m n) / H;
  // subtract it from the query and (per sequence) from the database.
  const double m = static_cast<double>(query_length);
  const double n = static_cast<double>(db_residues);
  const double num_seqs = static_cast<double>(db_sequences ? db_sequences : 1);
  double l = 0.0;
  if (m > 0 && n > 0 && params_.h > 0)
    l = std::log(params_.k * m * n) / params_.h;
  l = std::max(0.0, l);
  eff_m_ = std::max(1.0, m - l);
  eff_n_ = std::max(num_seqs, n - num_seqs * l);
}

double EvalueCalculator::bit_score(int raw_score) const {
  return (params_.lambda * raw_score - std::log(params_.k)) / std::log(2.0);
}

double EvalueCalculator::evalue(int raw_score) const {
  return params_.k * eff_m_ * eff_n_ *
         std::exp(-params_.lambda * raw_score);
}

int EvalueCalculator::min_significant_score(double max_evalue) const {
  // Solve K m' n' e^{-lambda S} <= E for the smallest integer S.
  const double rhs =
      std::log(params_.k * eff_m_ * eff_n_ / max_evalue) / params_.lambda;
  return static_cast<int>(std::ceil(std::max(0.0, rhs)));
}

}  // namespace repro::bio
