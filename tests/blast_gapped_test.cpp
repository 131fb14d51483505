// Tests for gapped x-drop extension and traceback: agreement with the
// two-pass reference DP (tests/gapped_reference.hpp) on edge cases and
// planted homologs, agreement between gapped_score and gapped_traceback,
// and validation of the edit transcript.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/gapped.hpp"
#include "gapped_reference.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using blast::Alignment;
using blast::SearchParams;

/// Recomputes an alignment's score from its edit transcript.
int score_from_ops(const bio::Pssm& pssm,
                   std::span<const std::uint8_t> subject,
                   const Alignment& a, const SearchParams& params) {
  int score = 0;
  std::uint32_t qi = a.q_start, si = a.s_start;
  char prev = 'M';
  for (const char op : a.ops) {
    switch (op) {
      case 'M':
        score += pssm.score(qi++, subject[si++]);
        break;
      case 'D':
        score -= (prev == 'D' ? params.gap_extend
                              : params.gap_open + params.gap_extend);
        ++qi;
        break;
      case 'I':
        score -= (prev == 'I' ? params.gap_extend
                              : params.gap_open + params.gap_extend);
        ++si;
        break;
      default:
        ADD_FAILURE() << "bad op " << op;
    }
    prev = op;
  }
  EXPECT_EQ(qi, a.q_end + 1);
  EXPECT_EQ(si, a.s_end + 1);
  return score;
}

struct Workload {
  std::vector<std::uint8_t> query;
  std::vector<std::uint8_t> subject;
  std::uint32_t qseed, sseed;
};

Workload homologous_case(std::uint64_t seed, double mutation, double indel) {
  util::Rng rng(seed);
  Workload w;
  w.query = bio::random_protein(240, rng);
  w.subject = bio::random_protein(60, rng);
  auto fragment = bio::mutate_fragment(std::span(w.query).subspan(60, 120),
                                       mutation, indel, rng);
  w.subject.insert(w.subject.begin() + 30, fragment.begin(), fragment.end());
  w.qseed = 120;  // middle of the planted region
  // Align the seed to the corresponding subject position (approximately,
  // indels shift it; the DP tolerates an off-center seed).
  w.sseed = 30 + 60;
  return w;
}

TEST(GappedExtension, ScoreOnlyMatchesTracebackScore) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto w = homologous_case(seed, 0.15, 0.03);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto gs =
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, params);
    const auto alignment = blast::gapped_traceback(pssm, w.subject, 0,
                                                   w.qseed, w.sseed, params);
    EXPECT_EQ(gs.score, alignment.score) << "seed " << seed;
    EXPECT_EQ(gs.q_start, alignment.q_start);
    EXPECT_EQ(gs.q_end, alignment.q_end);
    EXPECT_EQ(gs.s_start, alignment.s_start);
    EXPECT_EQ(gs.s_end, alignment.s_end);
  }
}

TEST(GappedExtension, TranscriptScoreMatchesReportedScore) {
  for (std::uint64_t seed = 31; seed <= 60; ++seed) {
    const auto w = homologous_case(seed, 0.2, 0.05);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto a = blast::gapped_traceback(pssm, w.subject, 0, w.qseed,
                                           w.sseed, params);
    EXPECT_EQ(a.score, score_from_ops(pssm, w.subject, a, params))
        << "seed " << seed;
  }
}

TEST(GappedExtension, SeedInsideAlignment) {
  for (std::uint64_t seed = 61; seed <= 80; ++seed) {
    const auto w = homologous_case(seed, 0.15, 0.02);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto a = blast::gapped_traceback(pssm, w.subject, 0, w.qseed,
                                           w.sseed, params);
    EXPECT_LE(a.q_start, w.qseed);
    EXPECT_GE(a.q_end, w.qseed);
    EXPECT_LE(a.s_start, w.sseed);
    EXPECT_GE(a.s_end, w.sseed);
  }
}

TEST(GappedExtension, IdenticalSequencesAlignPerfectly) {
  const auto query = bio::make_benchmark_query(120).residues;
  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const auto a = blast::gapped_traceback(pssm, query, 0, 60, 60, params);
  EXPECT_EQ(a.q_start, 0u);
  EXPECT_EQ(a.q_end, 119u);
  EXPECT_EQ(a.s_start, 0u);
  EXPECT_EQ(a.s_end, 119u);
  EXPECT_EQ(a.ops, std::string(120, 'M'));
  int self_score = 0;
  for (std::size_t i = 0; i < query.size(); ++i)
    self_score += pssm.score(i, query[i]);
  EXPECT_EQ(a.score, self_score);
}

TEST(GappedExtension, BridgesASingleGap) {
  // Two strongly conserved blocks separated by a 3-residue insertion in the
  // subject: the gapped stage must jump the gap that ungapped extension
  // cannot.
  util::Rng rng(99);
  auto query = bio::random_protein(80, rng);
  std::vector<std::uint8_t> subject = query;  // identical...
  const auto insert = bio::random_protein(3, rng);
  subject.insert(subject.begin() + 40, insert.begin(), insert.end());

  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const auto a = blast::gapped_traceback(pssm, subject, 0, 20, 20, params);
  EXPECT_EQ(a.q_start, 0u);
  EXPECT_EQ(a.q_end, 79u);
  EXPECT_EQ(std::count(a.ops.begin(), a.ops.end(), 'I'), 3);
  EXPECT_EQ(std::count(a.ops.begin(), a.ops.end(), 'M'), 80);
}

TEST(GappedExtension, GapCostsAffine) {
  // A 1-residue gap costs open+extend = 12; a 3-residue gap costs 14 — the
  // alignment of the previous test must reflect affine costs exactly.
  util::Rng rng(101);
  auto query = bio::random_protein(60, rng);
  std::vector<std::uint8_t> subject = query;
  const auto insert = bio::random_protein(3, rng);
  subject.insert(subject.begin() + 30, insert.begin(), insert.end());

  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const auto a = blast::gapped_traceback(pssm, subject, 0, 10, 10, params);
  int identity_score = 0;
  for (std::size_t i = 0; i < query.size(); ++i)
    identity_score += pssm.score(i, query[i]);
  // Inserted residues may accidentally extend a match; at minimum the score
  // is the identity score minus the affine gap cost.
  EXPECT_GE(a.score, identity_score - (params.gap_open +
                                       3 * params.gap_extend));
}

TEST(GappedExtension, LargerXdropNeverLowersScore) {
  for (std::uint64_t seed = 81; seed <= 95; ++seed) {
    const auto w = homologous_case(seed, 0.25, 0.05);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams small;
    small.gapped_xdrop = 10;
    SearchParams big;
    big.gapped_xdrop = 60;
    EXPECT_LE(
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, small).score,
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, big).score);
  }
}

TEST(GappedExtension, GappedScoreAtLeastUngappedDiagonalScore) {
  // With gaps allowed, the optimum can only improve on the pure-diagonal
  // path through the same seed.
  for (std::uint64_t seed = 120; seed <= 140; ++seed) {
    const auto w = homologous_case(seed, 0.2, 0.0);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto g =
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, params);
    // Diagonal-only score through the seed with the same x-drop rule is a
    // lower bound; the seed pair alone is a weaker but simpler bound.
    EXPECT_GE(g.score, pssm.score(w.qseed, w.subject[w.sseed]));
  }
}

TEST(GappedExtension, SeedAtSequenceEdges) {
  const auto query = bio::make_benchmark_query(50).residues;
  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  // Top-left corner.
  auto a = blast::gapped_traceback(pssm, query, 0, 0, 0, params);
  EXPECT_EQ(a.q_start, 0u);
  EXPECT_EQ(a.s_start, 0u);
  // Bottom-right corner.
  a = blast::gapped_traceback(pssm, query, 0, 49, 49, params);
  EXPECT_EQ(a.q_end, 49u);
  EXPECT_EQ(a.s_end, 49u);
}

/// Score, extents and ops of both entry points against the two-pass
/// reference DP.
::testing::AssertionResult matches_reference(
    const bio::Pssm& pssm, std::span<const std::uint8_t> subject,
    std::uint32_t qseed, std::uint32_t sseed, const SearchParams& params) {
  const auto want =
      testref::gapped_traceback(pssm, subject, 3, qseed, sseed, params);
  const auto got =
      blast::gapped_traceback(pssm, subject, 3, qseed, sseed, params);
  const auto want_score =
      testref::gapped_score(pssm, subject, qseed, sseed, params);
  const auto got_score =
      blast::gapped_score(pssm, subject, qseed, sseed, params);
  auto describe = [](const auto& a) {
    return std::to_string(a.score) + " q[" + std::to_string(a.q_start) +
           "," + std::to_string(a.q_end) + "] s[" +
           std::to_string(a.s_start) + "," + std::to_string(a.s_end) + "]";
  };
  if (got.seq != want.seq || got.score != want.score ||
      got.q_start != want.q_start || got.q_end != want.q_end ||
      got.s_start != want.s_start || got.s_end != want.s_end ||
      got.ops != want.ops)
    return ::testing::AssertionFailure()
           << "traceback " << describe(got) << " " << got.ops
           << " != reference " << describe(want) << " " << want.ops
           << " (seed " << qseed << "," << sseed << ", xdrop "
           << params.gapped_xdrop << ")";
  if (got_score.score != want_score.score ||
      got_score.q_start != want_score.q_start ||
      got_score.q_end != want_score.q_end ||
      got_score.s_start != want_score.s_start ||
      got_score.s_end != want_score.s_end)
    return ::testing::AssertionFailure()
           << "score " << describe(got_score) << " != reference "
           << describe(want_score) << " (seed " << qseed << "," << sseed
           << ", xdrop " << params.gapped_xdrop << ")";
  return ::testing::AssertionSuccess();
}

TEST(GappedExtension, MatchesReference) {
  for (const int xdrop : {10, 38, 60}) {
    SCOPED_TRACE("xdrop " + std::to_string(xdrop));
    SearchParams params;
    params.gapped_xdrop = xdrop;

    // Seeds on the first and last residue of the query and the subject.
    {
      util::Rng rng(5);
      const auto query = bio::random_protein(90, rng);
      auto subject = bio::mutate_fragment(query, 0.15, 0.04, rng);
      const bio::Pssm pssm(query, bio::Blosum62::instance());
      const auto qlast = static_cast<std::uint32_t>(query.size() - 1);
      const auto slast = static_cast<std::uint32_t>(subject.size() - 1);
      for (const std::uint32_t q : {0u, 1u, qlast / 2, qlast - 1, qlast})
        for (const std::uint32_t s : {0u, 1u, slast / 2, slast - 1, slast})
          ASSERT_TRUE(matches_reference(pssm, subject, q, s, params));
      // One-residue query and one-residue subject.
      const std::vector<std::uint8_t> first(query.begin(), query.begin() + 1);
      const bio::Pssm single(first, bio::Blosum62::instance());
      ASSERT_TRUE(matches_reference(single, subject, 0, 0, params));
      ASSERT_TRUE(matches_reference(single, subject, 0, slast, params));
      for (const std::uint32_t q : {0u, qlast / 3, qlast})
        ASSERT_TRUE(matches_reference(
            pssm, std::span(subject).subspan(q % subject.size(), 1), q, 0,
            params));
    }

    // Long subject insertions: the E chain of a row runs past the previous
    // row's band, and for large X the alignment bridges the insertion.
    {
      util::Rng rng(17);
      const auto query = bio::random_protein(160, rng);
      for (const std::size_t insert : {8u, 20u, 30u, 45u}) {
        std::vector<std::uint8_t> subject(query.begin(), query.begin() + 80);
        const auto extra = bio::random_protein(insert, rng);
        subject.insert(subject.end(), extra.begin(), extra.end());
        subject.insert(subject.end(), query.begin() + 80, query.end());
        const bio::Pssm pssm(query, bio::Blosum62::instance());
        ASSERT_TRUE(matches_reference(pssm, subject, 40, 40, params));
        ASSERT_TRUE(matches_reference(
            pssm, subject, 120, static_cast<std::uint32_t>(120 + insert),
            params));
        // The mirrored case: the insertion is in the query (F chain).
        const bio::Pssm long_pssm(subject, bio::Blosum62::instance());
        ASSERT_TRUE(matches_reference(long_pssm, query, 40, 40, params));
        ASSERT_TRUE(matches_reference(
            long_pssm, query, static_cast<std::uint32_t>(120 + insert), 120,
            params));
      }
    }

    // Rows whose first live cell lies right of the previous band's start: a
    // diagonal run leaves the band's left edge behind, and a mismatch run
    // in the middle kills the cells next to it.
    {
      const auto query = bio::encode_string(
          "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQCPFEDH"
          "VKLVNEVTEFAKTCVADESAENCDKSLHTLFGDKLCTVATLRETYGEMADCCAKQEPERNE");
      std::vector<std::uint8_t> subject = query;
      for (std::size_t i = 60; i < 66; ++i)
        subject[i] = static_cast<std::uint8_t>((subject[i] + 7) % 20);
      const bio::Pssm pssm(query, bio::Blosum62::instance());
      for (const std::uint32_t seed : {10u, 30u, 59u, 70u, 100u})
        ASSERT_TRUE(matches_reference(pssm, subject, seed, seed, params));
      ASSERT_TRUE(matches_reference(pssm, subject, 20, 24, params));
      ASSERT_TRUE(matches_reference(pssm, subject, 24, 20, params));
    }

    // Repeats: many co-optimal paths, so diagonal, E and F tie and the
    // transcript depends on the tie order.
    {
      const auto query = bio::encode_string(
          "AAAAAAAAAAGAGAGAGAGAGAGAGAWWWWWWWWKLKLKLKLKLKLKLCCCCCCCCAAAAAAAA");
      const auto subject = bio::encode_string(
          "AAAAAAAAAAAAAGAGAGAGAGAGWWWWWWWWWWWKLKLKLKLKLKLKLKLCCCCCCAAAAAAAA"
          "AAAA");
      const bio::Pssm pssm(query, bio::Blosum62::instance());
      for (std::uint32_t q = 0; q < query.size(); q += 5)
        for (std::uint32_t s = 0; s < subject.size(); s += 7)
          ASSERT_TRUE(matches_reference(pssm, subject, q, s, params));
      const auto period = bio::encode_string("GAGAGAGAGAGAGAGAGAGAGA");
      const auto shifted = bio::encode_string("AGAGAGAGAGAGAGAGAGAGAGAGAG");
      const bio::Pssm period_pssm(period, bio::Blosum62::instance());
      for (std::uint32_t q = 0; q < period.size(); q += 3)
        for (std::uint32_t s = 0; s < shifted.size(); s += 4)
          ASSERT_TRUE(matches_reference(period_pssm, shifted, q, s, params));
      // Two-letter sequences: gaps in either sequence often tie.
      util::Rng rng(23);
      const auto letters = bio::encode_string("WCKLAG");
      for (int trial = 0; trial < 40; ++trial) {
        const std::uint8_t a = letters[rng.below(letters.size())];
        const std::uint8_t b = letters[rng.below(letters.size())];
        auto draw = [&](std::size_t n) {
          std::vector<std::uint8_t> seq(n);
          for (auto& r : seq) r = rng.below(3) == 0 ? b : a;
          return seq;
        };
        const auto q = draw(20 + rng.below(40));
        const auto t = draw(20 + rng.below(40));
        const bio::Pssm low(q, bio::Blosum62::instance());
        ASSERT_TRUE(matches_reference(
            low, t, static_cast<std::uint32_t>(rng.below(q.size())),
            static_cast<std::uint32_t>(rng.below(t.size())), params))
            << "trial " << trial;
      }
    }

    // Random planted homologs, seeds inside and around the planted region.
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      util::Rng rng(1000 + seed);
      const double mutation = 0.05 + 0.3 * rng.uniform();
      const double indel = 0.08 * rng.uniform();
      const auto query = bio::random_protein(60 + rng.below(200), rng);
      const std::size_t from = rng.below(query.size() / 2);
      const std::size_t len = 10 + rng.below(query.size() - from - 9);
      auto subject = bio::random_protein(rng.below(80), rng);
      const std::size_t at = subject.size();
      const auto fragment = bio::mutate_fragment(
          std::span(query).subspan(from, len), mutation, indel, rng);
      subject.insert(subject.end(), fragment.begin(), fragment.end());
      const auto tail_residues = bio::random_protein(rng.below(80), rng);
      subject.insert(subject.end(), tail_residues.begin(),
                     tail_residues.end());
      const bio::Pssm pssm(query, bio::Blosum62::instance());
      const std::size_t offset = rng.below(len);
      const auto q = static_cast<std::uint32_t>(from + offset);
      const auto s = static_cast<std::uint32_t>(
          std::min(at + offset, subject.size() - 1));
      ASSERT_TRUE(matches_reference(pssm, subject, q, s, params))
          << "planted case " << seed;
      const auto q2 = static_cast<std::uint32_t>(rng.below(query.size()));
      const auto s2 = static_cast<std::uint32_t>(rng.below(subject.size()));
      ASSERT_TRUE(matches_reference(pssm, subject, q2, s2, params))
          << "random seed point, case " << seed;
    }
  }
}

TEST(GappedExtension, CellCountIsDeterministicWork) {
  SearchParams params;
  // Hand-counted bands. Seed (0, 0) of a one-residue query against three
  // subject residues: row 0 opens a gap (-12) and extends it (-13), both
  // above -X. Against one subject residue with a second query residue: one
  // cell, in row 1.
  {
    const auto query = bio::encode_string("WC");
    const auto subject = bio::encode_string("WAA");
    const std::vector<std::uint8_t> w(query.begin(), query.begin() + 1);
    const bio::Pssm one(w, bio::Blosum62::instance());
    EXPECT_EQ(blast::gapped_score(one, subject, 0, 0, params).cells, 2u);
    EXPECT_EQ(blast::gapped_score(one, std::span(subject).first(1), 0, 0,
                                  params)
                  .cells,
              0u);
    const bio::Pssm two(query, bio::Blosum62::instance());
    EXPECT_EQ(blast::gapped_score(two, std::span(subject).first(1), 0, 0,
                                  params)
                  .cells,
              1u);
  }

  // Counted once per recurrence evaluation, independent of the aligner's
  // earlier extensions and of which entry point ran. The pinned values are
  // this band's work; a change to what the band evaluates moves them.
  const auto w = homologous_case(7, 0.15, 0.03);
  const bio::Pssm pssm(w.query, bio::Blosum62::instance());
  const auto fresh =
      blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, params);
  EXPECT_EQ(fresh.cells, 6839u);
  blast::GappedAligner aligner(pssm, params);
  const auto other = homologous_case(8, 0.3, 0.05);
  aligner.extend(other.subject, 10, 10);
  const auto reused = aligner.extend(w.subject, w.qseed, w.sseed);
  EXPECT_EQ(reused.cells, fresh.cells);
  EXPECT_EQ(reused.score, fresh.score);
  SearchParams wide = params;
  wide.gapped_xdrop = 60;
  EXPECT_EQ(
      blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, wide).cells,
      10941u);

  // Both halves count: reversing both sequences swaps the halves and
  // mirrors the extents, and leaves score and cells unchanged.
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const auto c = homologous_case(seed, 0.2, 0.04);
    const std::vector<std::uint8_t> rq(c.query.rbegin(), c.query.rend());
    const std::vector<std::uint8_t> rs(c.subject.rbegin(), c.subject.rend());
    const bio::Pssm forward(c.query, bio::Blosum62::instance());
    const bio::Pssm backward(rq, bio::Blosum62::instance());
    const auto qlast = static_cast<std::uint32_t>(c.query.size() - 1);
    const auto slast = static_cast<std::uint32_t>(c.subject.size() - 1);
    const auto a = blast::gapped_score(forward, c.subject, c.qseed, c.sseed,
                                       params);
    const auto b = blast::gapped_score(backward, rs, qlast - c.qseed,
                                       slast - c.sseed, params);
    EXPECT_EQ(a.cells, b.cells) << "seed " << seed;
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.q_start, qlast - b.q_end);
    EXPECT_EQ(a.s_start, slast - b.s_end);
  }
}

TEST(GappedExtension, SingleResidueSubject) {
  const auto query = bio::make_benchmark_query(30).residues;
  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const std::vector<std::uint8_t> subject = {query[10]};
  const auto a = blast::gapped_traceback(pssm, subject, 0, 10, 0, params);
  EXPECT_EQ(a.s_start, 0u);
  EXPECT_EQ(a.s_end, 0u);
  EXPECT_GE(a.score, pssm.score(10, query[10]));
}

}  // namespace
}  // namespace repro
