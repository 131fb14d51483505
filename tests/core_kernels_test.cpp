// Kernel-level tests for the fine-grained pipeline: each kernel stage is
// validated in isolation against scalar oracles — detection against the
// column-major scan, sorting/filtering against the two-hit rules, and all
// three extension kernels against blast::extend_ungapped, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/seeding.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "core/bins.hpp"
#include "core/device_data.hpp"
#include "core/kernels.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using core::BinGrid;

struct PipelineFixture {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
  blast::SearchParams params;
  blast::WordLookup lookup;
  bio::Pssm pssm;
  core::QueryDevice device_query;
  core::BlockDevice device_block;

  PipelineFixture(std::size_t query_len, std::size_t num_seqs,
                  std::uint64_t seed, blast::SearchParams p = {})
      : query(bio::make_benchmark_query(query_len).residues),
        db(make_db(query, num_seqs, seed)),
        params(p),
        lookup(query, bio::Blosum62::instance(), params),
        pssm(query, bio::Blosum62::instance()),
        device_query(query, lookup, pssm),
        device_block(db, 0, db.size()) {}

  static bio::SequenceDatabase make_db(const std::vector<std::uint8_t>& q,
                                       std::size_t num_seqs,
                                       std::uint64_t seed) {
    auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
    profile.homolog_fraction = 0.1;
    bio::DatabaseGenerator gen(profile, seed);
    return gen.generate(q);
  }

  /// Reference hits via the scalar column-major scan.
  [[nodiscard]] std::vector<blast::Hit> reference_hits() const {
    std::vector<blast::Hit> hits;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const auto seq_hits = blast::collect_hits(
          lookup, db.residues(i), static_cast<std::uint32_t>(i));
      hits.insert(hits.end(), seq_hits.begin(), seq_hits.end());
    }
    return hits;
  }

  /// Reference extensions via the scalar two-hit phase.
  [[nodiscard]] std::vector<blast::UngappedExtension> reference_extensions()
      const {
    std::vector<blast::UngappedExtension> out;
    blast::TwoHitTracker tracker(query.size() + db.max_length() + 2);
    for (std::size_t i = 0; i < db.size(); ++i)
      blast::run_ungapped_phase(lookup, pssm, db.residues(i),
                                static_cast<std::uint32_t>(i), params,
                                tracker, out);
    return out;
  }
};

core::Config small_kernel_config() {
  core::Config config;
  config.detection_blocks = 2;
  config.detection_block_threads = 128;
  return config;
}

TEST(PackedHit, RoundTrip) {
  for (const std::int32_t diag : {-32768, -1053, -1, 0, 1, 517, 32767}) {
    for (const std::uint32_t spos : {0u, 1u, 1000u, 65535u}) {
      const std::uint64_t packed = core::pack_hit(12345, diag, spos);
      EXPECT_EQ(core::hit_seq(packed), 12345u);
      EXPECT_EQ(core::hit_diagonal(packed), diag);
      EXPECT_EQ(core::hit_spos(packed), spos);
    }
  }
}

TEST(PackedHit, SortOrderGroupsSeqDiagSpos) {
  // Paper Fig. 7: one ascending sort of the packed key must order by
  // sequence, then diagonal, then subject position.
  EXPECT_LT(core::pack_hit(1, 5, 9), core::pack_hit(2, -10, 0));
  EXPECT_LT(core::pack_hit(1, -3, 9), core::pack_hit(1, 5, 0));
  EXPECT_LT(core::pack_hit(1, 5, 3), core::pack_hit(1, 5, 9));
}

TEST(PackedHit, QueryPositionRecovered) {
  const std::uint64_t packed = core::pack_hit(3, -40, 17);
  EXPECT_EQ(core::hit_qpos(packed), 57u);  // spos - diag = 17 + 40
}

TEST(DetectionKernel, FindsExactlyTheReferenceHits) {
  PipelineFixture fx(127, 25, 301);
  simt::Engine engine;
  const auto config = small_kernel_config();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  const auto result = core::launch_hit_detection(engine, config,
                                                 fx.device_query,
                                                 fx.device_block, bins);
  ASSERT_FALSE(result.overflowed);

  // Unpack everything in the bins and compare as multisets.
  std::vector<blast::Hit> mine;
  for (std::size_t b = 0; b < bins.total_bins(); ++b) {
    const std::uint32_t n = std::min(bins.counts[b], bins.capacity);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t packed = bins.slots[bins.slot_index(b, i)];
      mine.push_back(blast::Hit{core::hit_seq(packed),
                                core::hit_qpos(packed),
                                core::hit_spos(packed)});
    }
  }
  auto expected = fx.reference_hits();
  std::sort(mine.begin(), mine.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(mine, expected);
  EXPECT_EQ(result.total_hits, expected.size());
}

TEST(DetectionKernel, BinAssignmentRespectsDiagonalModulo) {
  PipelineFixture fx(127, 10, 307);
  simt::Engine engine;
  auto config = small_kernel_config();
  config.num_bins_per_warp = 64;
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  for (std::size_t b = 0; b < bins.total_bins(); ++b) {
    const auto bin_in_warp = static_cast<std::int32_t>(b % 64);
    const std::uint32_t n = std::min(bins.counts[b], bins.capacity);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t packed = bins.slots[bins.slot_index(b, i)];
      EXPECT_EQ((core::hit_diagonal(packed) + core::kDiagonalBias) & 63,
                bin_in_warp);
    }
  }
}

TEST(SortAndFilter, BinsSortedAndSurvivorsObeyTwoHitRule) {
  PipelineFixture fx(127, 25, 311);
  simt::Engine engine;
  const auto config = small_kernel_config();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  core::launch_sort(engine, assembled);

  // Every bin ascending after the sort.
  for (std::size_t b = 0; b < assembled.counts.size(); ++b) {
    const std::uint32_t base = assembled.offsets[b];
    for (std::uint32_t i = 1; i < assembled.counts[b]; ++i)
      ASSERT_LE(assembled.hits[base + i - 1], assembled.hits[base + i]);
  }

  const auto filtered = core::launch_filter(engine, config, assembled);
  const auto window =
      static_cast<std::uint32_t>(fx.params.two_hit_window);
  std::uint64_t checked = 0;
  for (std::size_t b = 0; b < filtered.counts.size(); ++b) {
    const std::uint32_t base = filtered.offsets[b];
    // Survivors: each must have a same-(seq,diag) predecessor within the
    // window among the *unfiltered* sorted hits of the bin.
    for (std::uint32_t i = 0; i < filtered.counts[b]; ++i) {
      const std::uint64_t hit = filtered.hits[base + i];
      bool has_predecessor = false;
      for (std::uint32_t k = 0; k < assembled.counts[b]; ++k) {
        const std::uint64_t other = assembled.hits[assembled.offsets[b] + k];
        if (other >> 16 == hit >> 16 && other < hit &&
            core::hit_spos(hit) - core::hit_spos(other) <= window) {
          has_predecessor = true;
          break;
        }
      }
      EXPECT_TRUE(has_predecessor);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(checked, filtered.total_survivors);
}

TEST(SortAndFilter, LeftNeighbourCrossesChunkBoundaries) {
  // In a bin longer than a warp, the left neighbour of a chunk's first hit
  // is the previous chunk's last one. Sorted bins of 1..100 hits on a few
  // (seq, diagonal) runs, against the scalar two-hit rule and segment
  // starts.
  util::Rng rng(41);
  core::AssembledBins assembled;
  assembled.offsets.push_back(0);
  std::vector<std::uint32_t> counts;
  for (const std::uint32_t n : {1u, 31u, 32u, 33u, 64u, 65u, 100u}) {
    std::vector<std::uint64_t> bin;
    for (std::uint32_t i = 0; i < n; ++i)
      bin.push_back(core::pack_hit(
          static_cast<std::uint32_t>(rng.below(2)),
          static_cast<std::int32_t>(rng.below(2)),
          static_cast<std::uint32_t>(rng.below(1200))));
    std::sort(bin.begin(), bin.end());
    assembled.hits.insert(assembled.hits.end(), bin.begin(), bin.end());
    assembled.offsets.push_back(
        static_cast<std::uint32_t>(assembled.hits.size()));
    counts.push_back(n);
  }
  assembled.counts.assign(counts.begin(), counts.end());

  const core::Config config = small_kernel_config();
  const auto window = static_cast<std::uint32_t>(
      config.params.two_hit_window);
  simt::Engine engine;
  const auto filtered = core::launch_filter(engine, config, assembled);

  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t* hits = assembled.hits.data() + assembled.offsets[b];
    std::vector<std::uint64_t> survivors;
    for (std::uint32_t i = 1; i < counts[b]; ++i)
      if (hits[i] >> 16 == hits[i - 1] >> 16 &&
          core::hit_spos(hits[i]) - core::hit_spos(hits[i - 1]) <= window)
        survivors.push_back(hits[i]);
    std::vector<std::uint32_t> starts;
    for (std::uint32_t i = 0; i < survivors.size(); ++i)
      if (i == 0 || survivors[i] >> 16 != survivors[i - 1] >> 16)
        starts.push_back(i);

    const std::uint32_t base = filtered.offsets[b];
    ASSERT_EQ(filtered.counts[b], survivors.size()) << "bin " << b;
    ASSERT_EQ(filtered.seg_counts[b], starts.size()) << "bin " << b;
    for (std::size_t i = 0; i < survivors.size(); ++i)
      EXPECT_EQ(filtered.hits[base + i], survivors[i]) << "bin " << b;
    for (std::size_t s = 0; s < starts.size(); ++s)
      EXPECT_EQ(filtered.seg_starts[base + s], starts[s]) << "bin " << b;
  }
}

TEST(SegmentIndex, StartsMarkSeqDiagBoundaries) {
  PipelineFixture fx(127, 20, 313);
  simt::Engine engine;
  const auto config = small_kernel_config();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  core::launch_sort(engine, assembled);
  const auto filtered = core::launch_filter(engine, config, assembled);

  for (std::size_t b = 0; b < filtered.counts.size(); ++b) {
    const std::uint32_t base = filtered.offsets[b];
    const std::uint32_t n = filtered.counts[b];
    // Reconstruct expected starts.
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < n; ++i)
      if (i == 0 || (filtered.hits[base + i] >> 16) !=
                        (filtered.hits[base + i - 1] >> 16))
        expected.push_back(i);
    ASSERT_EQ(filtered.seg_counts[b], expected.size());
    for (std::size_t s = 0; s < expected.size(); ++s)
      EXPECT_EQ(filtered.seg_starts[base + s], expected[s]);
  }
}

class ExtensionKernelSweep
    : public ::testing::TestWithParam<core::ExtensionStrategy> {};

TEST_P(ExtensionKernelSweep, MatchesScalarReferenceExactly) {
  PipelineFixture fx(200, 30, 317);
  simt::Engine engine;
  auto config = small_kernel_config();
  config.strategy = GetParam();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  core::launch_sort(engine, assembled);
  const auto filtered = core::launch_filter(engine, config, assembled);
  auto result = core::launch_extension(engine, config, fx.device_query,
                                       fx.device_block, filtered);

  auto expected = fx.reference_extensions();
  std::sort(expected.begin(), expected.end());
  std::sort(result.extensions.begin(), result.extensions.end());
  EXPECT_EQ(result.extensions, expected);
}

TEST_P(ExtensionKernelSweep, OneHitModeAlsoMatches) {
  blast::SearchParams params;
  params.one_hit = true;
  PipelineFixture fx(127, 15, 331, params);
  simt::Engine engine;
  auto config = small_kernel_config();
  config.params = params;
  config.strategy = GetParam();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 8192);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  core::launch_sort(engine, assembled);
  const auto filtered = core::launch_filter(engine, config, assembled);
  auto result = core::launch_extension(engine, config, fx.device_query,
                                       fx.device_block, filtered);

  auto expected = fx.reference_extensions();
  std::sort(expected.begin(), expected.end());
  std::sort(result.extensions.begin(), result.extensions.end());
  EXPECT_EQ(result.extensions, expected);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ExtensionKernelSweep,
                         ::testing::Values(core::ExtensionStrategy::kDiagonal,
                                           core::ExtensionStrategy::kHit,
                                           core::ExtensionStrategy::kWindow));

class WindowSizeKernelSweep : public ::testing::TestWithParam<int> {};

TEST_P(WindowSizeKernelSweep, AllWindowSizesMatchScalar) {
  PipelineFixture fx(150, 20, 337);
  simt::Engine engine;
  auto config = small_kernel_config();
  config.strategy = core::ExtensionStrategy::kWindow;
  config.window_size = GetParam();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  core::launch_sort(engine, assembled);
  const auto filtered = core::launch_filter(engine, config, assembled);
  auto result = core::launch_extension(engine, config, fx.device_query,
                                       fx.device_block, filtered);

  auto expected = fx.reference_extensions();
  std::sort(expected.begin(), expected.end());
  std::sort(result.extensions.begin(), result.extensions.end());
  EXPECT_EQ(result.extensions, expected);
}

INSTANTIATE_TEST_SUITE_P(Widths, WindowSizeKernelSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(ExtensionKernels, LargeXdropStillMatches) {
  blast::SearchParams params;
  params.ungapped_xdrop = 60;
  params.ungapped_cutoff = 20;
  PipelineFixture fx(127, 15, 347, params);
  simt::Engine engine;
  for (const auto strategy :
       {core::ExtensionStrategy::kDiagonal, core::ExtensionStrategy::kHit,
        core::ExtensionStrategy::kWindow}) {
    auto config = small_kernel_config();
    config.params = params;
    config.strategy = strategy;
    BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
    (void)core::launch_hit_detection(engine, config, fx.device_query,
                                     fx.device_block, bins);
    auto assembled = core::launch_assemble(engine, bins);
    core::launch_sort(engine, assembled);
    const auto filtered = core::launch_filter(engine, config, assembled);
    auto result = core::launch_extension(engine, config, fx.device_query,
                                         fx.device_block, filtered);
    auto expected = fx.reference_extensions();
    std::sort(expected.begin(), expected.end());
    std::sort(result.extensions.begin(), result.extensions.end());
    EXPECT_EQ(result.extensions, expected)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(PackHit, RoundTripsAtFieldBoundaries) {
  // The Fig. 7 layout dedicates 16 bits to the biased diagonal and 16 to
  // the subject position; the extremes must survive the round trip (the
  // search() guards reject anything that could not).
  for (const std::int32_t diag : {-32768, -32767, -1, 0, 1, 32766, 32767})
    for (const std::uint32_t spos : {0u, 1u, 65534u, 65535u})
      for (const std::uint32_t seq : {0u, 1u, 0xffffffffu}) {
        const std::uint64_t packed = core::pack_hit(seq, diag, spos);
        EXPECT_EQ(core::hit_seq(packed), seq);
        EXPECT_EQ(core::hit_diagonal(packed), diag);
        EXPECT_EQ(core::hit_spos(packed), spos);
      }
}

TEST(PackHit, AscendingOrderGroupsSeqThenDiagonalThenSpos) {
  EXPECT_LT(core::pack_hit(1, 32767, 65535), core::pack_hit(2, -32768, 0));
  EXPECT_LT(core::pack_hit(1, -1, 65535), core::pack_hit(1, 0, 0));
  EXPECT_LT(core::pack_hit(1, 3, 4), core::pack_hit(1, 3, 5));
}

TEST(PackHit, QueryPositionRecoveredFromDiagonal) {
  // qpos = spos - diagonal, including negative diagonals.
  EXPECT_EQ(core::hit_qpos(core::pack_hit(7, -12, 30)), 42u);
  EXPECT_EQ(core::hit_qpos(core::pack_hit(7, 30, 30)), 0u);
}

}  // namespace
}  // namespace repro
