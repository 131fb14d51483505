// Tests for the result-processing layer: extension de-duplication, the
// gapped stage's agreement with the two-pass reference stage, its
// determinism and partition invariance (a regression test for an
// order-dependent tie-break bug), ranking, and formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>

#include "bio/generator.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/results.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "gapped_reference.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using blast::UngappedExtension;

UngappedExtension make_ext(std::uint32_t seq, std::uint32_t q_start,
                           std::uint32_t q_end, std::int32_t diag,
                           std::int32_t score) {
  UngappedExtension e;
  e.seq = seq;
  e.q_start = q_start;
  e.q_end = q_end;
  e.s_start = static_cast<std::uint32_t>(
      static_cast<std::int32_t>(q_start) + diag);
  e.s_end = static_cast<std::uint32_t>(static_cast<std::int32_t>(q_end) +
                                       diag);
  e.score = score;
  return e;
}

TEST(DedupeExtensions, RemovesExactDuplicates) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 20, 3, 50),
                                         make_ext(0, 5, 20, 3, 50),
                                         make_ext(0, 5, 20, 3, 50)};
  blast::dedupe_extensions(exts);
  EXPECT_EQ(exts.size(), 1u);
}

TEST(DedupeExtensions, DropsContainedWeakerOnSameDiagonal) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 40, 3, 90),
                                         make_ext(0, 10, 30, 3, 50)};
  blast::dedupe_extensions(exts);
  ASSERT_EQ(exts.size(), 1u);
  EXPECT_EQ(exts[0].score, 90);
}

TEST(DedupeExtensions, KeepsContainedStronger) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 40, 3, 50),
                                         make_ext(0, 10, 30, 3, 90)};
  blast::dedupe_extensions(exts);
  EXPECT_EQ(exts.size(), 2u);
}

TEST(DedupeExtensions, DifferentDiagonalsOrSequencesKept) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 40, 3, 50),
                                         make_ext(0, 5, 40, 4, 50),
                                         make_ext(1, 5, 40, 3, 50)};
  blast::dedupe_extensions(exts);
  EXPECT_EQ(exts.size(), 3u);
}

struct StageFixture {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
  blast::SearchParams params;
  std::vector<UngappedExtension> extensions;

  explicit StageFixture(std::uint64_t seed) {
    query = bio::make_benchmark_query(300).residues;
    auto profile = bio::DatabaseProfile::swissprot_like(80);
    profile.homolog_fraction = 0.15;
    bio::DatabaseGenerator gen(profile, seed);
    db = gen.generate(query);
    blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
    bio::Pssm pssm(query, bio::Blosum62::instance());
    blast::TwoHitTracker tracker(query.size() + db.max_length() + 2);
    for (std::size_t i = 0; i < db.size(); ++i)
      blast::run_ungapped_phase(lookup, pssm, db.residues(i),
                                static_cast<std::uint32_t>(i), params,
                                tracker, extensions);
  }
};

TEST(GappedStage, DeterministicAndInputOrderInvariant) {
  StageFixture fx(401);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  const auto a = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                             fx.params, evalue);
  auto shuffled = fx.extensions;
  util::Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  const auto b = blast::process_gapped_stage(pssm, fx.db, shuffled,
                                             fx.params, evalue);
  EXPECT_EQ(a.alignments, b.alignments);
}

TEST(GappedStage, PartitionInvariant) {
  // Regression test: running the stage per database block must produce the
  // same set as one global run — this requires every sort in the result
  // path to break ties on full alignment content (an earlier version
  // dropped different ops-variants of equal-score alignments depending on
  // the partition).
  StageFixture fx(409);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  auto global = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                            fx.params, evalue);
  blast::finalize_results(global.alignments, fx.params, evalue);

  for (const std::size_t blocks : {2u, 3u, 7u}) {
    std::vector<blast::Alignment> merged;
    const auto spans = fx.db.split_blocks(blocks);
    for (const auto& [lo, hi] : spans) {
      std::vector<UngappedExtension> subset;
      for (const auto& e : fx.extensions)
        if (e.seq >= lo && e.seq < hi) subset.push_back(e);
      auto part = blast::process_gapped_stage(pssm, fx.db, subset, fx.params,
                                              evalue);
      merged.insert(merged.end(), part.alignments.begin(),
                    part.alignments.end());
    }
    blast::finalize_results(merged, fx.params, evalue);
    EXPECT_EQ(global.alignments, merged) << blocks << " blocks";
  }
}

TEST(GappedStage, SharedSeedsComputedOnce) {
  StageFixture fx(419);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  // Duplicate every extension: seed de-duplication must keep the gapped
  // work identical.
  auto doubled = fx.extensions;
  doubled.insert(doubled.end(), fx.extensions.begin(), fx.extensions.end());
  const auto once = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                                fx.params, evalue);
  const auto twice = blast::process_gapped_stage(pssm, fx.db, doubled,
                                                 fx.params, evalue);
  EXPECT_EQ(once.gapped_extensions, twice.gapped_extensions);
  EXPECT_EQ(once.alignments, twice.alignments);
}

TEST(GappedStage, MatchesReferenceStage) {
  // The paper's three query lengths, each against a database in which a
  // fifth of the subjects hold a mutated fragment of it.
  struct Case {
    std::vector<std::uint8_t> query;
    bio::SequenceDatabase db;
    std::vector<UngappedExtension> extensions;
  };
  blast::SearchParams params;
  std::vector<Case> cases;
  for (const std::size_t length : {127u, 517u, 1054u}) {
    Case c;
    c.query = bio::make_benchmark_query(length).residues;
    auto profile = bio::DatabaseProfile::swissprot_like(60);
    profile.homolog_fraction = 0.2;
    c.db = bio::DatabaseGenerator(profile, 1000 + length).generate(c.query);
    const blast::WordLookup lookup(c.query, bio::Blosum62::instance(),
                                   params);
    const bio::Pssm pssm(c.query, bio::Blosum62::instance());
    blast::TwoHitTracker tracker(c.query.size() + c.db.max_length() + 2);
    for (std::size_t i = 0; i < c.db.size(); ++i)
      blast::run_ungapped_phase(lookup, pssm, c.db.residues(i),
                                static_cast<std::uint32_t>(i), params,
                                tracker, c.extensions);
    cases.push_back(std::move(c));
  }
  auto run_stage = [&](const Case& c) {
    const bio::Pssm pssm(c.query, bio::Blosum62::instance());
    const bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(),
                                       c.query.size(), c.db.total_residues(),
                                       c.db.size());
    return blast::process_gapped_stage(pssm, c.db, c.extensions, params,
                                       evalue);
  };

  std::vector<blast::GappedStageOutput> serial;
  for (const Case& c : cases) {
    SCOPED_TRACE("query length " + std::to_string(c.query.size()));
    const bio::Pssm pssm(c.query, bio::Blosum62::instance());
    const bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(),
                                       c.query.size(), c.db.total_residues(),
                                       c.db.size());
    const auto want = testref::gapped_stage(pssm, c.db, c.extensions, params,
                                            evalue);
    auto got = run_stage(c);
    EXPECT_EQ(got.alignments, want.alignments);
    EXPECT_EQ(got.gapped_extensions, want.gapped_extensions);
    EXPECT_EQ(got.tracebacks, want.tracebacks);
    EXPECT_GT(want.tracebacks, 0u);
    EXPECT_GT(got.dp_cells, got.gapped_extensions);
    EXPECT_EQ(got.gapped_task_costs.size(), got.gapped_extensions);
    EXPECT_EQ(got.traceback_task_costs.size(), got.tracebacks);
    serial.push_back(std::move(got));
  }

  // Four stages at once, two of them on the same query: each stage owns
  // its scratch, so concurrent stages match the serial ones exactly.
  std::array<blast::GappedStageOutput, 4> concurrent;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < concurrent.size(); ++t)
    threads.emplace_back([&, t] {
      concurrent[t] = run_stage(cases[t % cases.size()]);
    });
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < concurrent.size(); ++t) {
    const auto& want = serial[t % cases.size()];
    EXPECT_EQ(concurrent[t].alignments, want.alignments) << "thread " << t;
    EXPECT_EQ(concurrent[t].gapped_extensions, want.gapped_extensions);
    EXPECT_EQ(concurrent[t].tracebacks, want.tracebacks);
    EXPECT_EQ(concurrent[t].dp_cells, want.dp_cells);
  }
}

TEST(FinalizeResults, FiltersAndRanks) {
  StageFixture fx(421);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  auto stage = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                           fx.params, evalue);
  blast::finalize_results(stage.alignments, fx.params, evalue);
  ASSERT_FALSE(stage.alignments.empty());
  for (std::size_t i = 0; i < stage.alignments.size(); ++i) {
    EXPECT_LE(stage.alignments[i].evalue, fx.params.max_evalue);
    EXPECT_GT(stage.alignments[i].bit_score, 0.0);
    if (i > 0) {
      EXPECT_GE(stage.alignments[i - 1].score, stage.alignments[i].score);
    }
  }
}

TEST(FormatAlignment, CoordinatesConsistentWithOps) {
  StageFixture fx(431);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  auto stage = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                           fx.params, evalue);
  blast::finalize_results(stage.alignments, fx.params, evalue);
  ASSERT_FALSE(stage.alignments.empty());
  for (const auto& a : stage.alignments) {
    const auto m = std::count(a.ops.begin(), a.ops.end(), 'M');
    const auto d = std::count(a.ops.begin(), a.ops.end(), 'D');
    const auto ins = std::count(a.ops.begin(), a.ops.end(), 'I');
    EXPECT_EQ(static_cast<std::uint32_t>(m + d), a.q_end - a.q_start + 1);
    EXPECT_EQ(static_cast<std::uint32_t>(m + ins), a.s_end - a.s_start + 1);
    // And the renderer must not crash / must contain both coordinates.
    const std::string text =
        blast::format_alignment(fx.query, fx.db, a);
    EXPECT_NE(text.find(std::to_string(a.q_start + 1)), std::string::npos);
  }
}

}  // namespace
}  // namespace repro
