// Karlin–Altschul statistics: the E-value / bit-score machinery BLAST uses
// to rank alignments.
//
// We ship the published BLOSUM62 constants (the ones every BLASTP uses) and
// additionally implement the ungapped lambda/H solver from first principles
// (Karlin & Altschul, PNAS 1990); a test verifies the solved lambda matches
// the published 0.3176 for BLOSUM62 over Robinson–Robinson frequencies.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "bio/alphabet.hpp"
#include "bio/blosum.hpp"

namespace repro::bio {

struct KarlinParams {
  double lambda;  ///< scale of the score distribution
  double k;       ///< size-correction constant
  double h;       ///< relative entropy per aligned pair (nats)
};

/// Published values for ungapped BLOSUM62.
[[nodiscard]] KarlinParams blosum62_ungapped();

/// Published values for gapped BLOSUM62 with gap open 11 / extend 1.
[[nodiscard]] KarlinParams blosum62_gapped_11_1();

/// Solves the ungapped lambda for an arbitrary substitution matrix and
/// residue background: the unique positive root of
///   sum_ij p_i p_j exp(lambda * s_ij) = 1.
/// Requires a negative expected score and at least one positive score.
/// Throws std::domain_error otherwise.
[[nodiscard]] double solve_ungapped_lambda(
    const Blosum62& matrix, const std::array<double, kAlphabetSize>& freqs);

/// Relative entropy H for a matrix/background at a given lambda.
[[nodiscard]] double relative_entropy(
    const Blosum62& matrix, const std::array<double, kAlphabetSize>& freqs,
    double lambda);

/// Statistics context for one search: query length m, database residue count
/// n, database sequence count num_seqs.
class EvalueCalculator {
 public:
  EvalueCalculator(KarlinParams params, std::size_t query_length,
                   std::uint64_t db_residues, std::size_t db_sequences);

  /// Bit score: S' = (lambda*S - ln K) / ln 2.
  [[nodiscard]] double bit_score(int raw_score) const;

  /// Expect value with BLAST's effective-length adjustment.
  [[nodiscard]] double evalue(int raw_score) const;

  /// Smallest raw score whose e-value is <= `max_evalue`.
  [[nodiscard]] int min_significant_score(double max_evalue) const;

  [[nodiscard]] const KarlinParams& params() const { return params_; }
  [[nodiscard]] double effective_query_length() const { return eff_m_; }
  [[nodiscard]] double effective_db_length() const { return eff_n_; }

 private:
  KarlinParams params_;
  double eff_m_;
  double eff_n_;
};

}  // namespace repro::bio
