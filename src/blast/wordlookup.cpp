#include "blast/wordlookup.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace repro::blast {

namespace {

std::uint32_t pow_alphabet(int w) {
  std::uint32_t n = 1;
  for (int i = 0; i < w; ++i) n *= bio::kAlphabetSize;
  return n;
}

/// One query letter's BLOSUM62 row over the standard amino acids, sorted
/// by descending score: scores[0] is the best any word letter can add.
struct SortedRow {
  std::array<std::uint8_t, bio::kNumRealAminoAcids> letters{};
  std::array<int, bio::kNumRealAminoAcids> scores{};
};

using SortedRows = std::array<SortedRow, bio::kAlphabetSize>;

SortedRows sort_rows(const bio::Blosum62& matrix) {
  SortedRows rows{};
  for (int a = 0; a < bio::kAlphabetSize; ++a) {
    SortedRow& row = rows[static_cast<std::size_t>(a)];
    for (int b = 0; b < bio::kNumRealAminoAcids; ++b)
      row.letters[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(b);
    const auto score = [&](std::uint8_t b) {
      return matrix.score(static_cast<std::uint8_t>(a), b);
    };
    std::sort(row.letters.begin(), row.letters.end(),
              [&](std::uint8_t x, std::uint8_t y) {
                return score(x) > score(y);
              });
    for (int i = 0; i < bio::kNumRealAminoAcids; ++i)
      row.scores[static_cast<std::size_t>(i)] =
          score(row.letters[static_cast<std::size_t>(i)]);
  }
  return rows;
}

/// The neighbours of one query word: every W-mer of standard amino acids
/// scoring >= T against it.
struct NeighborWalk {
  std::array<const SortedRow*, 8> rows{};  ///< the query word's letters
  std::array<int, 9> best_rest{};  ///< best score levels [d, W) can add
  int w = 0;
  int t = 0;
  std::uint32_t pos = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>* entries = nullptr;

  /// Level `depth` extends `prefix` (scoring `score`) by each letter of its
  /// sorted row, stopping at the first one whose best completion misses T.
  void walk(int depth, int score, std::uint32_t prefix) const {
    const SortedRow& row = *rows[static_cast<std::size_t>(depth)];
    const int need =
        t - score - best_rest[static_cast<std::size_t>(depth + 1)];
    for (int i = 0; i < bio::kNumRealAminoAcids; ++i) {
      const int s = row.scores[static_cast<std::size_t>(i)];
      if (s < need) break;
      const std::uint32_t word = prefix * bio::kAlphabetSize +
                                 row.letters[static_cast<std::size_t>(i)];
      if (depth + 1 == w)
        entries->emplace_back(word, pos);
      else
        walk(depth + 1, score + s, word);
    }
  }
};

}  // namespace

WordLookup::WordLookup(std::span<const std::uint8_t> query,
                       const bio::Blosum62& matrix,
                       const SearchParams& params)
    : w_(params.word_length),
      query_length_(query.size()),
      num_words_(0) {
  if (w_ < 2 || w_ > 5)
    throw std::invalid_argument("WordLookup: word_length must be in [2,5]");
  num_words_ = pow_alphabet(w_);

  const auto num_positions =
      query.size() >= static_cast<std::size_t>(w_)
          ? query.size() - static_cast<std::size_t>(w_) + 1
          : 0;

  // Enumerate, for each query word position, all W-mers of standard amino
  // acids scoring >= T against it. Each level walks its query letter's
  // BLOSUM62 row in descending score order and breaks at the first letter
  // with which even the best remaining letters cannot reach T, so the walk
  // visits only prefixes of words it emits.
  const SortedRows rows = sort_rows(matrix);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;  // word, pos
  NeighborWalk walk;
  walk.w = w_;
  walk.t = params.neighbor_threshold;
  walk.entries = &entries;
  for (std::size_t pos = 0; pos < num_positions; ++pos) {
    for (int d = w_ - 1; d >= 0; --d) {
      const auto i = static_cast<std::size_t>(d);
      walk.rows[i] = &rows[query[pos + i]];
      walk.best_rest[i] = walk.best_rest[i + 1] + walk.rows[i]->scores[0];
    }
    walk.pos = static_cast<std::uint32_t>(pos);
    walk.walk(0, 0, 0);
  }

  // Bucket entries by word index (counting sort keeps position order stable
  // and ascending, which downstream code relies on).
  offsets_.assign(num_words_ + 1, 0);
  for (const auto& [word_idx, pos] : entries) ++offsets_[word_idx + 1];
  for (std::uint32_t i = 0; i < num_words_; ++i)
    offsets_[i + 1] += offsets_[i];
  positions_.resize(entries.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [word_idx, pos] : entries)
    positions_[cursor[word_idx]++] = pos;
}

Dfa::Dfa(const WordLookup& lookup)
    : lookup_(&lookup),
      num_states_(0) {
  if (lookup.word_length() != 3)
    throw std::invalid_argument("Dfa requires word_length == 3");
  num_states_ = static_cast<std::uint32_t>(bio::kAlphabetSize) *
                bio::kAlphabetSize;
}

}  // namespace repro::blast
