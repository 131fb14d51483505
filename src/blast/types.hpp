// Common value types shared by every search engine (the fine-grained
// cuBLASTP core and all four baselines), so that "output identical to
// FSA-BLAST" (paper §4.3) is a checkable property.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace repro::blast {

/// Search parameters. Defaults are the FSA-BLAST/NCBI BLASTP defaults used
/// throughout the paper (W=3, T=11, two-hit window A=40, BLOSUM62 with gap
/// open 11 / extend 1).
struct SearchParams {
  int word_length = 3;        ///< W
  int neighbor_threshold = 11;  ///< T: word neighborhood score threshold
  int two_hit_window = 40;    ///< A: max distance between paired hits
  int ungapped_xdrop = 16;    ///< X_u (raw score units)
  int ungapped_cutoff = 38;   ///< raw ungapped score that triggers gapped ext
  int gapped_xdrop = 38;      ///< X_g
  int gap_open = 11;          ///< affine gap open cost (first residue: 12)
  int gap_extend = 1;         ///< affine gap extension cost per residue
  double max_evalue = 10.0;   ///< report threshold
  bool one_hit = false;       ///< ablation: trigger extension on single hits
};

/// A word hit: query/subject positions of a matching W-mer.
struct Hit {
  std::uint32_t seq = 0;   ///< subject sequence index in the database
  std::uint32_t qpos = 0;  ///< word start in the query
  std::uint32_t spos = 0;  ///< word start in the subject

  /// Diagonal number. The paper offsets by the query length to keep it
  /// non-negative; we keep the signed value and offset at bin time.
  [[nodiscard]] std::int32_t diagonal() const {
    return static_cast<std::int32_t>(spos) - static_cast<std::int32_t>(qpos);
  }

  friend bool operator==(const Hit&, const Hit&) = default;
  friend auto operator<=>(const Hit&, const Hit&) = default;
};

/// Result of one ungapped x-drop extension: the maximal-scoring segment on a
/// diagonal. Coordinates are inclusive.
struct UngappedExtension {
  std::uint32_t seq = 0;
  std::uint32_t q_start = 0, q_end = 0;
  std::uint32_t s_start = 0, s_end = 0;
  std::int32_t score = 0;

  [[nodiscard]] std::int32_t diagonal() const {
    return static_cast<std::int32_t>(s_start) -
           static_cast<std::int32_t>(q_start);
  }
  /// Seed point handed to the gapped stage (center of the segment).
  [[nodiscard]] std::uint32_t q_seed() const { return (q_start + q_end) / 2; }
  [[nodiscard]] std::uint32_t s_seed() const {
    return s_start + (q_seed() - q_start);
  }

  friend bool operator==(const UngappedExtension&,
                         const UngappedExtension&) = default;
  friend auto operator<=>(const UngappedExtension&,
                          const UngappedExtension&) = default;
};

/// A final gapped alignment with traceback.
struct Alignment {
  std::uint32_t seq = 0;
  std::int32_t score = 0;
  double bit_score = 0.0;
  double evalue = 0.0;
  std::uint32_t q_start = 0, q_end = 0;  ///< inclusive
  std::uint32_t s_start = 0, s_end = 0;  ///< inclusive
  /// Edit transcript: 'M' aligned pair, 'D' gap in subject (query residue
  /// unmatched), 'I' gap in query (subject residue unmatched).
  std::string ops;

  [[nodiscard]] std::size_t alignment_length() const { return ops.size(); }

  friend bool operator==(const Alignment&, const Alignment&) = default;
};

/// Wall-clock (or modeled, for device kernels) seconds per BLASTP phase.
struct PhaseTimings {
  double hit_detection = 0.0;      ///< includes binning/sorting/filtering
  double ungapped_extension = 0.0;
  double gapped_extension = 0.0;
  double traceback = 0.0;
  double other = 0.0;  ///< DFA/PSSM build, output, transfers not overlapped

  [[nodiscard]] double critical() const {
    return hit_detection + ungapped_extension;
  }
  [[nodiscard]] double total() const {
    return hit_detection + ungapped_extension + gapped_extension + traceback +
           other;
  }
};

/// Work counters used by tests and by the profiling bench (Fig. 19 and the
/// §3.3 "5–11 % of hits survive filtering" claim).
struct SearchCounters {
  std::uint64_t words_scanned = 0;
  std::uint64_t hits_detected = 0;
  std::uint64_t hits_after_filter = 0;
  std::uint64_t ungapped_extensions = 0;
  std::uint64_t gapped_extensions = 0;
  std::uint64_t tracebacks = 0;
  std::uint64_t dp_cells = 0;  ///< gapped-DP recurrence evaluations

  [[nodiscard]] double filter_survival_ratio() const {
    return hits_detected
               ? static_cast<double>(hits_after_filter) /
                     static_cast<double>(hits_detected)
               : 0.0;
  }
};

/// Everything a search returns.
struct SearchResult {
  std::vector<Alignment> alignments;  ///< ranked: best first
  PhaseTimings timings;
  SearchCounters counters;
};

}  // namespace repro::blast
