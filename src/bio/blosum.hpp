// The BLOSUM62 substitution matrix, the default scoring matrix of BLASTP.
//
// The matrix is exposed both as a 24x24 table in this library's alphabet
// order and as the 32x32 zero-padded layout the paper stores in GPU shared
// memory ("BLOSUM62 matrix, which consists of 32 * 32 = 1024 elements and
// has a fixed size of only 2 kB, i.e. 2 bytes per element", §3.5).
#pragma once

#include <array>
#include <cstdint>

#include "bio/alphabet.hpp"

namespace repro::bio {

/// Score type used by all alignment code. 16-bit everywhere on the device
/// path (matching the paper's 2-bytes-per-element layout); widened to int
/// in accumulators.
using Score = std::int16_t;

/// Dimension of the padded device-layout matrix.
inline constexpr int kPaddedMatrixDim = 32;

class Blosum62 {
 public:
  /// Singleton accessor (the matrix is immutable global data).
  static const Blosum62& instance();

  /// Substitution score for two residue codes.
  [[nodiscard]] Score score(std::uint8_t a, std::uint8_t b) const {
    return scores_[a][b];
  }

  /// The 32x32 padded row-major layout (2 kB) used by the GPU kernels;
  /// element (a, b) lives at index a * 32 + b.
  [[nodiscard]] const std::array<Score, kPaddedMatrixDim * kPaddedMatrixDim>&
  padded() const {
    return padded_;
  }

  /// Highest score in the matrix.
  [[nodiscard]] Score max_score() const { return max_score_; }

 private:
  Blosum62();

  std::array<std::array<Score, kAlphabetSize>, kAlphabetSize> scores_{};
  std::array<Score, kPaddedMatrixDim * kPaddedMatrixDim> padded_{};
  Score max_score_ = 0;
};

}  // namespace repro::bio
