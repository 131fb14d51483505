// Tests for hit detection: neighborhood word lookup, DFA equivalence, and
// the column-major scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bio/generator.hpp"
#include "blast/seeding.hpp"
#include "blast/wordlookup.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using blast::SearchParams;
using blast::WordLookup;

/// Brute-force neighborhood oracle: for every W-mer of standard amino
/// acids, the query positions whose word it scores >= T against, in
/// ascending order (keyed by word index; words without positions absent).
std::map<std::uint32_t, std::vector<std::uint32_t>> brute_force_neighbors(
    const std::vector<std::uint8_t>& query, const SearchParams& params) {
  const auto& m = bio::Blosum62::instance();
  const auto w = static_cast<std::size_t>(params.word_length);
  std::map<std::uint32_t, std::vector<std::uint32_t>> table;
  for (std::size_t pos = 0; pos + w <= query.size(); ++pos) {
    std::vector<std::uint8_t> word(w, 0);
    while (true) {
      int score = 0;
      for (std::size_t i = 0; i < w; ++i)
        score += m.score(query[pos + i], word[i]);
      if (score >= params.neighbor_threshold)
        table[WordLookup::word_index(word.data(), params.word_length)]
            .push_back(static_cast<std::uint32_t>(pos));
      // Next word, last letter fastest.
      std::size_t i = w;
      while (i > 0 && ++word[i - 1] == bio::kNumRealAminoAcids) word[--i] = 0;
      if (i == 0) break;
    }
  }
  return table;
}

TEST(WordLookup, MatchesBruteForceNeighborhood) {
  // Every word's position list must equal the oracle's: its set and its
  // count. With PositionsAscendingPerWord this pins both buffers exactly.
  struct Case {
    std::string query;
    std::vector<int> word_lengths;
  };
  const std::vector<Case> cases = {
      {"MKWVTFISLLFLFSSAYS", {2, 3, 4}},
      // B, Z, X and * (codes 20-23) never appear in a neighbour word, but
      // they score against every letter of one.
      {"MBKZWX*VTFBBZISX*LW", {2, 3, 4}},
      {"WCBZX*HY", {5}},
  };
  for (const Case& c : cases) {
    const auto query = bio::encode_string(c.query);
    for (const int w : c.word_lengths) {
      for (const int t : {9, 11, 13, 15}) {
        SearchParams params;
        params.word_length = w;
        params.neighbor_threshold = t;
        const WordLookup lookup(query, bio::Blosum62::instance(), params);
        const auto expected = brute_force_neighbors(query, params);
        std::size_t entries = 0;
        for (std::uint32_t word = 0; word < lookup.num_words(); ++word) {
          const auto positions = lookup.positions(word);
          entries += positions.size();
          const auto it = expected.find(word);
          const std::vector<std::uint32_t> want =
              it == expected.end() ? std::vector<std::uint32_t>{} : it->second;
          ASSERT_EQ(std::vector<std::uint32_t>(positions.begin(),
                                               positions.end()),
                    want)
              << c.query << " W=" << w << " T=" << t << " word " << word;
        }
        EXPECT_EQ(entries, lookup.total_entries());
      }
    }
  }
}

TEST(WordLookup, SelfWordIncludedWhenSelfScorePassesT) {
  // WWW self-score = 33 >= 11, so the exact word must be its own neighbor.
  const auto query = bio::encode_string("WWWWW");
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  const std::uint8_t www[3] = {*bio::encode_letter('W'),
                               *bio::encode_letter('W'),
                               *bio::encode_letter('W')};
  const auto positions = lookup.positions(WordLookup::word_index(www, 3));
  EXPECT_EQ(positions.size(), 3u);  // positions 0, 1, 2
}

TEST(WordLookup, PositionsAscendingPerWord) {
  const auto query = bio::make_benchmark_query(127).residues;
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  for (std::uint32_t w = 0; w < lookup.num_words(); ++w) {
    const auto positions = lookup.positions(w);
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
  }
}

TEST(WordLookup, HigherThresholdShrinksTable) {
  const auto query = bio::make_benchmark_query(200).residues;
  SearchParams loose;
  loose.neighbor_threshold = 10;
  SearchParams tight;
  tight.neighbor_threshold = 13;
  WordLookup a(query, bio::Blosum62::instance(), loose);
  WordLookup b(query, bio::Blosum62::instance(), tight);
  EXPECT_GT(a.total_entries(), b.total_entries());
}

TEST(WordLookup, QueryShorterThanWordIsEmpty) {
  const auto query = bio::encode_string("AC");
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  EXPECT_EQ(lookup.total_entries(), 0u);
}

TEST(WordLookup, RejectsBadWordLength) {
  const auto query = bio::encode_string("ACDEF");
  SearchParams params;
  params.word_length = 1;
  EXPECT_THROW(WordLookup(query, bio::Blosum62::instance(), params),
               std::invalid_argument);
  params.word_length = 6;
  EXPECT_THROW(WordLookup(query, bio::Blosum62::instance(), params),
               std::invalid_argument);
}

TEST(Dfa, RequiresWordLengthThree) {
  const auto query = bio::encode_string("ACDEF");
  SearchParams params;
  params.word_length = 4;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  EXPECT_THROW(blast::Dfa dfa(lookup), std::invalid_argument);
}

TEST(Dfa, PaperWalkExample) {
  // Paper Fig. 2a uses the abstract example: query BABBC, subject CBABB,
  // W = 3, where BAB is at query position 0 and ABB at query position 1.
  // We instantiate it with standard amino acids (B -> V): the self-scores
  // of VAV and AVV are 12 >= T, so the exact words are their own
  // neighbors and the walk must find them at the right subject offsets.
  const auto query = bio::encode_string("VAVVC");
  const auto subject = bio::encode_string("CVAVV");
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  blast::Dfa dfa(lookup);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> hits;
  blast::scan_subject_dfa(dfa, subject,
                          [&](std::uint32_t qpos, std::uint32_t spos) {
                            hits.emplace_back(qpos, spos);
                          });
  // "VAV" occurs at subject position 1 and matches query position 0.
  EXPECT_NE(std::find(hits.begin(), hits.end(), std::make_pair(0u, 1u)),
            hits.end());
  // "AVV" occurs at subject position 2 and matches query position 1.
  EXPECT_NE(std::find(hits.begin(), hits.end(), std::make_pair(1u, 2u)),
            hits.end());
}

TEST(Dfa, ScanMatchesFlatLookupScan) {
  util::Rng rng(4);
  const auto query = bio::make_benchmark_query(127).residues;
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  blast::Dfa dfa(lookup);

  for (int trial = 0; trial < 20; ++trial) {
    const auto subject =
        bio::random_protein(20 + rng.below(400), rng);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> flat, via_dfa;
    blast::scan_subject(lookup, subject,
                        [&](std::uint32_t q, std::uint32_t s) {
                          flat.emplace_back(q, s);
                        });
    blast::scan_subject_dfa(dfa, subject,
                            [&](std::uint32_t q, std::uint32_t s) {
                              via_dfa.emplace_back(q, s);
                            });
    EXPECT_EQ(flat, via_dfa);
  }
}

TEST(Seeding, ColumnMajorOrder) {
  const auto query = bio::make_benchmark_query(127).residues;
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  util::Rng rng(8);
  const auto subject = bio::random_protein(300, rng);
  const auto hits = blast::collect_hits(lookup, subject, 7);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].spos, hits[i].spos);
    if (hits[i - 1].spos == hits[i].spos) {
      EXPECT_LT(hits[i - 1].qpos, hits[i].qpos);
    }
  }
  for (const auto& h : hits) EXPECT_EQ(h.seq, 7u);
}

TEST(Seeding, SubjectShorterThanWordYieldsNoHits) {
  const auto query = bio::make_benchmark_query(127).residues;
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  const auto subject = bio::encode_string("AC");
  EXPECT_EQ(blast::scan_subject(lookup, subject,
                                [](std::uint32_t, std::uint32_t) {}),
            0u);
  EXPECT_TRUE(blast::collect_hits(lookup, subject, 0).empty());
}

TEST(Seeding, IdenticalSequenceProducesMainDiagonalRun) {
  // Scanning the query against itself must produce a hit at every word
  // position on diagonal 0 (self-words score >= T for typical residues —
  // verify at least 80% do, and all are on the main diagonal).
  const auto query = bio::make_benchmark_query(200).residues;
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  const auto hits = blast::collect_hits(lookup, query, 0);
  std::size_t diag0_selfhits = 0;
  for (const auto& h : hits)
    if (h.diagonal() == 0 && h.qpos == h.spos) ++diag0_selfhits;
  EXPECT_GT(diag0_selfhits, (query.size() - 2) * 8 / 10);
}

TEST(Seeding, HitDensityInRealisticRange) {
  // Sanity anchor for the synthetic workload: random protein vs random
  // query should produce roughly 1 hit per few hundred (word, position)
  // pairs with the default T=11 neighborhood.
  const auto query = bio::make_benchmark_query(517).residues;
  SearchParams params;
  WordLookup lookup(query, bio::Blosum62::instance(), params);
  util::Rng rng(12);
  std::uint64_t hits = 0, words = 0;
  for (int i = 0; i < 30; ++i) {
    const auto subject = bio::random_protein(370, rng);
    words += blast::scan_subject(
        lookup, subject, [&](std::uint32_t, std::uint32_t) { ++hits; });
  }
  const double hits_per_word =
      static_cast<double>(hits) / static_cast<double>(words);
  EXPECT_GT(hits_per_word, 0.2);
  EXPECT_LT(hits_per_word, 8.0);
}

}  // namespace
}  // namespace repro
