// Gapped x-drop extension (paper phase 3) and alignment with traceback
// (phase 4).
//
// From the seed point of a high-scoring ungapped extension, dynamic
// programming with affine gaps extends in both directions, pruning cells
// whose score falls more than X_g below the running best (Zhang et al.'s
// x-drop band, as in NCBI BLAST). One DP pass per seed computes the score
// and records a direction byte for every cell of the band; phase 4 walks
// that record back from the best cell only when the score clears the
// e-value cutoff. The transcript is therefore exact by construction: it is
// read from the very DP that produced the reported score and extents, so
// there is no second pass that could disagree with the first. The walk
// visits only cells that were alive when computed (an H cell on the path is
// within X_g of the best, and a gap chain that feeds a live cell is live
// itself), and every live cell lies inside the recorded band.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bio/pssm.hpp"
#include "blast/types.hpp"

namespace repro::blast {

/// Score, extent and DP work of a gapped extension.
struct GappedScore {
  std::int32_t score = 0;
  std::uint32_t q_start = 0, q_end = 0;  ///< inclusive
  std::uint32_t s_start = 0, s_end = 0;  ///< inclusive
  /// Evaluations of the affine-gap recurrence over both halves: a
  /// deterministic work count for the phase-3 CPU cost.
  std::uint64_t cells = 0;
};

/// Runs the gapped extensions of one query and owns their scratch: two DP
/// rows and one direction record per half. Keeps a reference to the PSSM,
/// which must outlive it. Not thread-safe; give each thread its own
/// aligner.
class GappedAligner {
 public:
  GappedAligner(const bio::Pssm& pssm, const SearchParams& params);

  /// The x-drop DP in both directions from seed (qseed, sseed). Records the
  /// band's direction bytes, which stay until the next extend().
  GappedScore extend(std::span<const std::uint8_t> subject,
                     std::uint32_t qseed, std::uint32_t sseed);

  /// Walks the last extend()'s record back from its best cell. Returns the
  /// alignment with score, coordinates and edit transcript; bit_score and
  /// evalue are left at zero for the caller (results.cpp) to fill in.
  [[nodiscard]] Alignment traceback(std::uint32_t seq_index) const;

 private:
  struct Row {
    std::size_t offset;  ///< first direction byte of the row
    int first_col;       ///< column of that byte
  };
  /// The direction bytes of one half, band row after band row.
  struct Record {
    std::vector<std::uint8_t> dirs;
    std::vector<Row> rows;
    std::size_t used = 0;
    int best_row = 0, best_col = 0;
  };
  struct Half {
    int score = 0;
    std::uint64_t cells = 0;
  };
  /// One DP cell of a row: H and F (a gap in the subject).
  struct Cell {
    int h, f;
  };

  template <int kDir>
  Half extend_half(Record& record, const std::uint8_t* seed_residue,
                   std::uint32_t qseed, int q_avail, int s_avail);
  static void walk_back(const Record& record, std::string& ops);

  const bio::Pssm& pssm_;
  int xdrop_, open_cost_, extend_cost_;
  std::vector<Cell> prev_row_, cur_row_;
  Record right_, left_;
  GappedScore last_;
};

/// Gapped extension from seed (qseed, sseed): score and extents only.
[[nodiscard]] GappedScore gapped_score(const bio::Pssm& pssm,
                                       std::span<const std::uint8_t> subject,
                                       std::uint32_t qseed,
                                       std::uint32_t sseed,
                                       const SearchParams& params);

/// Gapped extension from seed (qseed, sseed) walked back into an alignment.
[[nodiscard]] Alignment gapped_traceback(const bio::Pssm& pssm,
                                         std::span<const std::uint8_t> subject,
                                         std::uint32_t seq_index,
                                         std::uint32_t qseed,
                                         std::uint32_t sseed,
                                         const SearchParams& params);

}  // namespace repro::blast
