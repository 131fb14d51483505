// Query preprocessing for hit detection: the neighborhood word lookup table
// and the DFA built over it (paper Fig. 2a, [20]).
//
// For every possible W-mer of standard amino acids, the lookup stores the
// query positions whose W-mer scores >= T against it under BLOSUM62. Hit
// detection then walks the subject sequence and, for each subject word,
// retrieves the matching query positions in O(1).
//
// The table is built per query on the host. Each query word's neighbours
// are enumerated letter by letter over BLOSUM62 rows sorted by descending
// score; a level stops at the first letter with which even the best
// remaining letters cannot reach T, so the build costs in proportion to
// the entries it emits.
//
// The Dfa view reorganizes the same data the way FSA-BLAST does: a state
// per (W-1)-letter prefix with one transition per next letter, so hit
// detection needs only one state step and one entry load per subject letter.
// The split matters for the paper's hierarchical buffering (§3.5, Fig. 10):
// the fixed-size state table lives in GPU shared memory while the variable-
// size position lists go through the read-only cache.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/blosum.hpp"
#include "blast/types.hpp"

namespace repro::blast {

class WordLookup {
 public:
  /// Builds the table for `query`. Supports word_length in [2, 5].
  WordLookup(std::span<const std::uint8_t> query,
             const bio::Blosum62& matrix, const SearchParams& params);

  [[nodiscard]] int word_length() const { return w_; }
  [[nodiscard]] std::size_t query_length() const { return query_length_; }

  /// Number of distinct word indices (kAlphabetSize^W).
  [[nodiscard]] std::uint32_t num_words() const { return num_words_; }

  /// Query positions matching this word index (may be empty).
  [[nodiscard]] std::span<const std::uint32_t> positions(
      std::uint32_t word) const {
    return {positions_.data() + offsets_[word],
            offsets_[word + 1] - offsets_[word]};
  }

  /// Base-kAlphabetSize index of the word starting at `p`.
  [[nodiscard]] static std::uint32_t word_index(const std::uint8_t* p,
                                                int w) {
    std::uint32_t idx = 0;
    for (int i = 0; i < w; ++i)
      idx = idx * bio::kAlphabetSize + p[static_cast<std::size_t>(i)];
    return idx;
  }

  /// Total number of (word, query position) entries — the size of the
  /// position buffer the paper routes through the read-only cache.
  [[nodiscard]] std::size_t total_entries() const {
    return positions_.size();
  }

  /// Raw buffers (device views used by the SIMT kernels).
  [[nodiscard]] std::span<const std::uint32_t> offset_buffer() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> position_buffer() const {
    return positions_;
  }

 private:
  int w_;
  std::size_t query_length_;
  std::uint32_t num_words_;
  std::vector<std::uint32_t> offsets_;    ///< num_words()+1 entries
  std::vector<std::uint32_t> positions_;  ///< grouped by word index
};

/// DFA over (W-1)-letter prefixes; a thin reorganization of WordLookup.
/// Only defined for W == 3 (the protein default), as in FSA-BLAST.
class Dfa {
 public:
  explicit Dfa(const WordLookup& lookup);

  /// Number of states: kAlphabetSize^(W-1).
  [[nodiscard]] std::uint32_t num_states() const { return num_states_; }

  /// Transition: feed the next subject letter.
  [[nodiscard]] std::uint16_t next_state(std::uint16_t state,
                                         std::uint8_t letter) const {
    return static_cast<std::uint16_t>(
        (state % kPrefixStride) * bio::kAlphabetSize + letter);
  }

  /// Query positions of the word formed by `state`'s prefix plus `letter`.
  [[nodiscard]] std::span<const std::uint32_t> positions(
      std::uint16_t state, std::uint8_t letter) const {
    return lookup_->positions(static_cast<std::uint32_t>(state) *
                                  bio::kAlphabetSize +
                              letter);
  }

  /// Bytes of the state-transition structure — the shared-memory resident
  /// part in the paper's hierarchical buffering.
  [[nodiscard]] std::size_t state_table_bytes() const {
    return static_cast<std::size_t>(num_states_) * bio::kAlphabetSize *
           sizeof(std::uint32_t);
  }

  [[nodiscard]] const WordLookup& lookup() const { return *lookup_; }

 private:
  static constexpr std::uint32_t kPrefixStride = bio::kAlphabetSize;

  const WordLookup* lookup_;
  std::uint32_t num_states_;
};

}  // namespace repro::blast
