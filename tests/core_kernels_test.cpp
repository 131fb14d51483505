// Kernel-level tests for the fine-grained pipeline: each kernel stage is
// validated in isolation against scalar oracles — detection against the
// column-major scan, sorting/filtering against the two-hit rules, and all
// three extension kernels against blast::extend_ungapped, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/seeding.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "core/bins.hpp"
#include "core/device_data.hpp"
#include "core/kernels.hpp"
#include "flat_list_reference.hpp"
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
  config.detection_blocks = 1;  // 8 warps
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

TEST(DetectionGrid, DefaultIsOneBlockPerSmWithinTheOldResidentGrid) {
  // A later default cannot grow the resident grid (and with it peak RSS)
  // past the old 64 warps x 128 bins x 256 slots unnoticed.
  const core::Config config;
  EXPECT_EQ(config.detection_blocks, simt::DeviceSpec{}.num_sms);
  EXPECT_LE(BinGrid::slot_count(config.detection_warps(),
                                config.num_bins_per_warp,
                                static_cast<std::uint32_t>(config.bin_capacity)),
            std::size_t{64} * 128 * 256);
}

TEST(DetectionGrid, DealsSequencesOverBlocksFirst) {
  // As many sequences as the default grid has blocks: each lands in warp 0
  // of its own block, so every SM detects hits. Bins and KernelStats are
  // the same whether the blocks run serially or SM-sharded.
  const core::Config config;
  const auto blocks = static_cast<std::size_t>(config.detection_blocks);
  const int warps_per_block = core::kDetectionBlockThreads / simt::kWarpSize;
  PipelineFixture fx(127, blocks, 331);
  ASSERT_EQ(fx.db.size(), blocks);
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 1024);

  std::vector<std::vector<std::uint64_t>> runs;
  std::vector<simt::KernelStats> stats;
  for (const int workers : {1, 4}) {
    simt::Engine engine;
    engine.set_workers(workers);
    bins.rearm(1024);
    ASSERT_FALSE(core::launch_hit_detection(engine, config, fx.device_query,
                                            fx.device_block, bins)
                     .overflowed);
    stats.push_back(engine.profile().at(core::kKernelDetection));

    std::vector<std::uint64_t> contents;  // each bin's count, then its hits
    std::vector<std::size_t> per_block(blocks, 0);
    for (std::size_t b = 0; b < bins.total_bins(); ++b) {
      const auto warp = static_cast<int>(b) / bins.num_bins;
      contents.push_back(bins.counts[b]);
      for (std::uint32_t i = 0; i < bins.counts[b]; ++i) {
        const std::uint64_t packed = bins.slots[bins.slot_index(b, i)];
        contents.push_back(packed);
        EXPECT_EQ(warp % warps_per_block, 0) << "bin " << b;
        EXPECT_EQ(core::hit_seq(packed),
                  static_cast<std::uint32_t>(warp / warps_per_block))
            << "bin " << b;
        ++per_block[static_cast<std::size_t>(warp / warps_per_block)];
      }
    }
    for (std::size_t blk = 0; blk < blocks; ++blk)
      EXPECT_GT(per_block[blk], 0u) << "block " << blk << " found no hits";
    runs.push_back(std::move(contents));
  }
  EXPECT_EQ(runs[0], runs[1]);
  const simt::KernelStats& a = stats[0];
  const simt::KernelStats& b = stats[1];
  EXPECT_EQ(a.num_blocks, blocks);
  EXPECT_EQ(std::tie(a.vec_ops, a.active_lane_sum, a.ld_requests,
                     a.ld_bytes_requested, a.ld_transactions, a.st_requests,
                     a.st_bytes_requested, a.st_transactions, a.rocache_hits,
                     a.rocache_misses, a.shared_ops, a.shared_conflict_passes,
                     a.atomic_ops, a.atomic_serial_passes, a.num_blocks,
                     a.shared_bytes, a.occupancy_weight),
            std::tie(b.vec_ops, b.active_lane_sum, b.ld_requests,
                     b.ld_bytes_requested, b.ld_transactions, b.st_requests,
                     b.st_bytes_requested, b.st_transactions, b.rocache_hits,
                     b.rocache_misses, b.shared_ops, b.shared_conflict_passes,
                     b.atomic_ops, b.atomic_serial_passes, b.num_blocks,
                     b.shared_bytes, b.occupancy_weight));
  EXPECT_EQ(a.occupancy, b.occupancy);
  EXPECT_EQ(a.time_ms, b.time_ms);
}

/// K4's flat list against the host reference: compact survivors, segment
/// starts and the closing sentinel, each array exactly sized.
void expect_flat_list(const core::FilteredBins& filtered,
                      const testref::FlatReference& ref) {
  ASSERT_EQ(filtered.total_survivors, ref.survivors.size());
  ASSERT_EQ(filtered.total_segments + 1, ref.segments.size());
  ASSERT_EQ(filtered.hits.size(), ref.survivors.size());
  ASSERT_EQ(filtered.segments.size(), ref.segments.size());
  for (std::size_t i = 0; i < ref.survivors.size(); ++i)
    EXPECT_EQ(filtered.hits[i], ref.survivors[i]) << "survivor " << i;
  for (std::size_t g = 0; g < ref.segments.size(); ++g)
    EXPECT_EQ(filtered.segments[g], ref.segments[g]) << "segment " << g;
}

/// K3 leaves every bin longer than a warp sorted in `hits`, as `reference`
/// (make_bins of the grid's hits) holds it. Returns how many there are.
std::size_t expect_long_bins_sorted(const core::AssembledBins& assembled,
                                    const core::AssembledBins& reference) {
  EXPECT_TRUE(assembled.sorted);
  EXPECT_EQ(assembled.num_bins(), reference.num_bins());
  std::size_t long_bins = 0;
  for (std::size_t b = 0; b < assembled.num_bins(); ++b) {
    EXPECT_EQ(assembled.offsets[b], reference.offsets[b]);
    const std::uint32_t n = assembled.offsets[b + 1] - assembled.offsets[b];
    if (n <= 32) continue;
    ++long_bins;
    const auto at = static_cast<std::ptrdiff_t>(assembled.offsets[b]);
    EXPECT_TRUE(std::equal(assembled.hits.begin() + at,
                           assembled.hits.begin() + at + n,
                           reference.hits.begin() + at))
        << "bin " << b;
  }
  return long_bins;
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
  const core::AssembledBins reference =
      testref::make_bins(testref::grid_bins(bins));
  expect_long_bins_sorted(assembled, reference);

  const auto filtered = core::launch_filter(engine, config, assembled);
  // Survivors: each must have a same-(seq,diag) predecessor within the
  // window among the *unfiltered* sorted hits.
  std::vector<std::uint64_t> all(reference.hits.begin(),
                                 reference.hits.end());
  std::sort(all.begin(), all.end());
  const auto window =
      static_cast<std::uint32_t>(fx.params.two_hit_window);
  for (std::size_t i = 0; i < filtered.total_survivors; ++i) {
    const std::uint64_t hit = filtered.hits[i];
    const auto at = std::lower_bound(all.begin(), all.end(), hit);
    ASSERT_NE(at, all.begin());
    const std::uint64_t other = *(at - 1);
    EXPECT_TRUE(other >> 16 == hit >> 16 &&
                core::hit_spos(hit) - core::hit_spos(other) <= window);
  }
  EXPECT_GT(filtered.total_survivors, 0u);
  expect_flat_list(filtered, testref::flat_reference(reference, fx.params));
}

TEST(SortAndFilter, LeftNeighbourCrossesChunkBoundaries) {
  // In a bin longer than a warp, the left neighbour of a chunk's first hit
  // is the previous chunk's last one, and so may be its previous survivor.
  // Sorted bins of 1..100 hits on a few (seq, diagonal) runs, against the
  // scalar two-hit rule and segment starts.
  // Each bin has sequences of its own, as K1's bins do.
  util::Rng rng(41);
  std::vector<std::vector<std::uint64_t>> bins;
  for (const std::uint32_t n : {1u, 31u, 32u, 33u, 64u, 65u, 100u}) {
    std::vector<std::uint64_t> bin;
    const auto first_seq = static_cast<std::uint32_t>(2 * bins.size());
    for (std::uint32_t i = 0; i < n; ++i)
      bin.push_back(core::pack_hit(
          first_seq + static_cast<std::uint32_t>(rng.below(2)),
          static_cast<std::int32_t>(rng.below(2)),
          static_cast<std::uint32_t>(rng.below(1200))));
    bins.push_back(bin);
  }
  const core::AssembledBins assembled = testref::make_bins(bins);
  const core::Config config = small_kernel_config();
  simt::Engine engine;
  const auto filtered = core::launch_filter(engine, config, assembled);
  expect_flat_list(filtered,
                   testref::flat_reference(assembled, config.params));
}

class SortAndFilterBins : public ::testing::TestWithParam<int> {};

TEST_P(SortAndFilterBins, MatchHostReference) {
  // K3 and K4 give each warp a run of consecutive bins, so the bin count
  // sets how many runs there are and how full they get. K3 reads each long
  // bin out of the grid, K4 each short one; the reference sorts the grid's
  // claimed slots.
  PipelineFixture fx(127, 20, 313);
  simt::Engine engine;
  auto config = small_kernel_config();
  config.num_bins_per_warp = GetParam();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  const core::AssembledBins reference =
      testref::make_bins(testref::grid_bins(bins));
  core::launch_sort(engine, assembled);
  expect_long_bins_sorted(assembled, reference);

  const auto filtered = core::launch_filter(engine, config, assembled);
  EXPECT_EQ(filtered.num_bins, assembled.num_bins());
  EXPECT_GT(filtered.total_segments, 0u);
  expect_flat_list(filtered, testref::flat_reference(reference, fx.params));
}

INSTANTIATE_TEST_SUITE_P(BinsPerWarp, SortAndFilterBins,
                         ::testing::Values(32, 256));

TEST(SegmentIndex, RunsOfBinsMatchHostReference) {
  // K4 walks a run of consecutive bins (32 of them) as one stream of hits.
  // Seventy-six bins make two full runs and a short one: bins of 0, 1, 2,
  // 31, 32, 33 and 65 hits side by side; a run that ends in four empty
  // bins; a run whose first survivor is its second hit (its first in
  // one-hit mode) and whose last hit survives; and a short run that ends
  // in empty bins.
  constexpr std::size_t kRun = 32;
  util::Rng rng(43);
  const std::vector<std::uint32_t> sizes = {0, 1, 2, 31, 32, 33, 65};
  std::vector<std::vector<std::uint64_t>> bins(2 * kRun + 12);
  const auto fill = [&](std::size_t b, std::uint32_t n) {
    // Each bin has a sequence of its own, as K1's bins do.
    for (std::uint32_t i = 0; i < n; ++i)
      bins[b].push_back(core::pack_hit(
          static_cast<std::uint32_t>(b),
          static_cast<std::int32_t>(rng.below(3)),
          static_cast<std::uint32_t>(rng.below(300))));
  };
  for (std::size_t b = 0; b < kRun - 4; ++b) fill(b, sizes[b % sizes.size()]);
  const auto first = static_cast<std::uint32_t>(kRun);
  const auto last = static_cast<std::uint32_t>(2 * kRun - 1);
  bins[first] = {core::pack_hit(first, 0, 100), core::pack_hit(first, 0, 105)};
  for (std::size_t b = kRun + 1; b < 2 * kRun; ++b)
    fill(b, sizes[(b * 5) % sizes.size()]);
  bins[last].push_back(core::pack_hit(last, 5, 500));
  bins[last].push_back(core::pack_hit(last, 5, 510));
  for (std::size_t b = 2 * kRun; b < 2 * kRun + 6; ++b)
    fill(b, sizes[(b * 3) % sizes.size()]);
  const core::AssembledBins assembled = testref::make_bins(bins);

  for (const bool one_hit : {false, true}) {
    core::Config config = small_kernel_config();
    config.params.one_hit = one_hit;
    simt::Engine engine;
    const auto filtered = core::launch_filter(engine, config, assembled);
    const auto ref = testref::flat_reference(assembled, config.params);
    const auto survives = [&](std::uint64_t hit) {
      return std::find(ref.survivors.begin(), ref.survivors.end(), hit) !=
             ref.survivors.end();
    };
    EXPECT_EQ(survives(core::pack_hit(first, 0, 100)), one_hit);
    EXPECT_TRUE(survives(core::pack_hit(first, 0, 105)));
    EXPECT_TRUE(survives(core::pack_hit(last, 5, 510)));
    expect_flat_list(filtered, ref);
  }
}

TEST(SortAndFilter, ShortBinsSortInsideTheFilterPass) {
  // K3 sorts only the bins longer than a warp; K4 sorts the others in
  // register packs as it filters them, and streams each long bin between
  // its packs. Three runs of bins of 0/1/2/31/32/33/1024/1025 hits in
  // several orders, a long bin between two packs, and pairs exactly
  // two_hit_window and window + 1 apart in a short and in a long bin; the
  // hits come unsorted. The flat list must equal the host reference for
  // grid-row input, unsorted in-place input and sorted in-place input, in
  // two-hit and one-hit mode.
  const core::Config base = small_kernel_config();
  const auto window = static_cast<std::uint32_t>(base.params.two_hit_window);
  util::Rng rng(2323);
  const std::vector<std::uint32_t> sizes = {
      0,    1,    2,  31, 32, 33, 1024, 1025,  // ascending
      1025, 1024, 33, 32, 31, 2,  1,    0,     // descending
      2,    2,    1024, 2, 2,                  // a long bin between packs
      4,                                       // window edges, short bin
      31,   1,    1025, 0, 0, 2, 32, 33, 17, 5,
      1028,                                    // window edges, long bin
      3,    1024, 9,  33, 0, 32, 1, 31, 2, 1025, 16, 8, 7, 1, 2, 2,
      30,   1,    0,  1025, 2, 33, 4, 0, 1, 2, 31, 32, 33, 2, 5, 1024,
      1,    2};
  std::vector<std::vector<std::uint64_t>> bins(sizes.size());
  std::vector<std::uint64_t> paired_at_window;
  std::vector<std::uint64_t> past_window;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const auto seq = static_cast<std::uint32_t>(b);
    std::uint32_t n = sizes[b];
    if (n == 4 || n == 1028) {
      // Diagonal 50 pairs at exactly the window; diagonal 60 misses by one.
      bins[b] = {core::pack_hit(seq, 50, 100),
                 core::pack_hit(seq, 50, 100 + window),
                 core::pack_hit(seq, 60, 300),
                 core::pack_hit(seq, 60, 300 + window + 1)};
      paired_at_window.push_back(bins[b][1]);
      past_window.push_back(bins[b][3]);
      n -= 4;
    }
    for (std::uint32_t i = 0; i < n; ++i)
      bins[b].push_back(core::pack_hit(
          seq, static_cast<std::int32_t>(rng.below(3)),
          static_cast<std::uint32_t>(rng.below(2000))));
    for (std::size_t i = bins[b].size(); i > 1; --i)
      std::swap(bins[b][i - 1], bins[b][rng.below(i)]);
  }
  ASSERT_GT(bins.size(), 2 * 32u);
  const core::AssembledBins reference = testref::make_bins(bins);

  for (const bool one_hit : {false, true}) {
    core::Config config = base;
    config.params.one_hit = one_hit;
    const auto ref = testref::flat_reference(reference, config.params);
    const auto survives = [&](std::uint64_t hit) {
      return std::find(ref.survivors.begin(), ref.survivors.end(), hit) !=
             ref.survivors.end();
    };
    for (const std::uint64_t hit : paired_at_window)
      EXPECT_TRUE(survives(hit));
    for (const std::uint64_t hit : past_window)
      EXPECT_EQ(survives(hit), one_hit);

    // Grid rows, as K1 leaves them; K4 will not filter unsorted long bins.
    simt::Engine engine;
    const BinGrid grid = testref::make_grid(bins, 1100);
    auto from_grid = core::launch_assemble(engine, grid);
    EXPECT_THROW((void)core::launch_filter(engine, config, from_grid),
                 std::logic_error);
    core::launch_sort(engine, from_grid);
    EXPECT_EQ(expect_long_bins_sorted(from_grid, reference), 17u);
    expect_flat_list(core::launch_filter(engine, config, from_grid), ref);

    // In place and unsorted: K3 sorts the long bins where they are.
    core::AssembledBins in_place;
    in_place.offsets.push_back(0);
    for (const auto& bin : bins) {
      in_place.hits.insert(in_place.hits.end(), bin.begin(), bin.end());
      in_place.offsets.push_back(
          static_cast<std::uint32_t>(in_place.hits.size()));
    }
    core::launch_sort(engine, in_place);
    expect_long_bins_sorted(in_place, reference);
    expect_flat_list(core::launch_filter(engine, config, in_place), ref);

    // In place and already sorted.
    expect_flat_list(core::launch_filter(engine, config, reference), ref);
  }
}

TEST(SortAndFilter, SortLaunchesWithoutLongBins) {
  // A block with no bin over 32 hits leaves K3 nothing to sort, but its
  // launch still runs: every search has a hit_sort row.
  std::vector<std::vector<std::uint64_t>> bins(40);
  for (std::size_t b = 0; b < bins.size(); ++b)
    for (std::uint32_t i = 0; i < b % 33; ++i)
      bins[b].push_back(core::pack_hit(static_cast<std::uint32_t>(b), 0,
                                       (i * 7919) % 500));
  simt::Engine engine;
  const BinGrid grid = testref::make_grid(bins, 64);
  auto assembled = core::launch_assemble(engine, grid);
  core::launch_sort(engine, assembled);
  ASSERT_TRUE(engine.profile().has(core::kKernelSort));
  const simt::KernelStats& sort = engine.profile().at(core::kKernelSort);
  EXPECT_GT(sort.num_blocks, 0u);
  EXPECT_EQ(sort.vec_ops, 0u);
  EXPECT_EQ(sort.ld_transactions + sort.st_transactions, 0u);
  const core::Config config = small_kernel_config();
  expect_flat_list(core::launch_filter(engine, config, assembled),
                   testref::flat_reference(testref::make_bins(bins),
                                           config.params));
}

TEST(SegmentIndex, FlatListMatchesHostReference) {
  PipelineFixture fx(127, 20, 313);
  simt::Engine engine;
  const auto config = small_kernel_config();
  BinGrid bins(config.detection_warps(), config.num_bins_per_warp, 4096);
  (void)core::launch_hit_detection(engine, config, fx.device_query,
                                   fx.device_block, bins);
  auto assembled = core::launch_assemble(engine, bins);
  core::launch_sort(engine, assembled);
  const auto filtered = core::launch_filter(engine, config, assembled);
  EXPECT_EQ(filtered.num_bins, assembled.num_bins());
  EXPECT_GT(filtered.total_segments, 0u);
  expect_flat_list(filtered,
                   testref::flat_reference(
                       testref::make_bins(testref::grid_bins(bins)),
                       fx.params));
}

TEST(SegmentIndex, EmptyBinsAndSegmentsAcrossChunks) {
  // Empty bins and bins whose hits all fail the filter place nothing; one
  // segment runs across three 32-hit chunks; in another bin the previous
  // survivor of a chunk's first survivor lies two chunks back, behind a
  // chunk with no survivors at all.
  const auto run = [](std::uint32_t seq, std::int32_t diag,
                      std::uint32_t first, std::uint32_t n,
                      std::uint32_t step) {
    std::vector<std::uint64_t> hits;
    for (std::uint32_t i = 0; i < n; ++i)
      hits.push_back(core::pack_hit(seq, diag, first + i * step));
    return hits;
  };
  std::vector<std::vector<std::uint64_t>> bins(6);
  bins[1] = run(1, 0, 0, 20, 100);   // 20 hits, 100 apart: no survivor
  bins[2] = run(2, 3, 0, 80, 2);     // one segment of 79 over 3 chunks
  bins[4] = run(3, -7, 0, 2, 10);    // survivor 1 of key (3, -7) ...
  const auto lone = run(3, -7, 100, 70, 100);  // ... 70 dropped hits ...
  bins[4].insert(bins[4].end(), lone.begin(), lone.end());
  const auto late = run(3, -7, 7100, 2, 10);   // ... then survivor 2
  bins[4].insert(bins[4].end(), late.begin(), late.end());
  const auto other = run(4, 1, 0, 3, 5);       // and a second segment
  bins[4].insert(bins[4].end(), other.begin(), other.end());
  const core::AssembledBins assembled = testref::make_bins(bins);

  const core::Config config = small_kernel_config();
  simt::Engine engine;
  const auto filtered = core::launch_filter(engine, config, assembled);
  const auto ref = testref::flat_reference(assembled, config.params);
  EXPECT_EQ(ref.survivors.size(), 79u + 2u + 2u);
  EXPECT_EQ(ref.segments, (std::vector<std::uint32_t>{0, 79, 81, 83}));
  expect_flat_list(filtered, ref);
}

TEST(SegmentIndex, PreviousSurvivorTwoHitsBack) {
  // One diagonal, spos 0/10/100/110, A = 40: 10 and 110 survive, 100 is
  // dropped, and the two survivors still form one segment.
  core::Config config = small_kernel_config();
  config.params.two_hit_window = 40;
  const core::AssembledBins assembled = testref::make_bins(
      {{core::pack_hit(5, 2, 0), core::pack_hit(5, 2, 10),
        core::pack_hit(5, 2, 100), core::pack_hit(5, 2, 110)}});
  simt::Engine engine;
  const auto filtered = core::launch_filter(engine, config, assembled);
  ASSERT_EQ(filtered.total_survivors, 2u);
  EXPECT_EQ(core::hit_spos(filtered.hits[0]), 10u);
  EXPECT_EQ(core::hit_spos(filtered.hits[1]), 110u);
  EXPECT_EQ(filtered.total_segments, 1u);
  EXPECT_EQ(filtered.segments[0], 0u);
  EXPECT_EQ(filtered.segments[1], 2u);
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

TEST(ExtensionKernels, UnevenSegmentsAcrossBins) {
  // One segment of 100 survivors among hundreds of one-survivor segments,
  // crowded into a few of 16 bins: while one window works through the long
  // segment, the others of its warp keep claiming short ones.
  blast::SearchParams params;
  params.ungapped_cutoff = 0;  // most extensions emit a record
  PipelineFixture fx(200, 40, 353, params);
  const core::AssembledBins assembled =
      testref::make_uneven_bins(fx.db, 200, 59);
  const auto ref = testref::flat_reference(assembled, params);
  std::uint64_t reference_runs = 0;
  const auto expected = testref::reference_extensions(
      ref, fx.db, fx.pssm, params, &reference_runs);
  ASSERT_GT(ref.segments.size(), 500u);
  ASSERT_GT(expected.size(), 100u);

  for (const auto strategy :
       {core::ExtensionStrategy::kDiagonal, core::ExtensionStrategy::kHit,
        core::ExtensionStrategy::kWindow}) {
    for (const int window_size : {2, 4, 8, 16, 32}) {
      auto config = small_kernel_config();
      config.params = params;
      config.strategy = strategy;
      config.window_size = window_size;
      simt::Engine engine;
      const auto filtered = core::launch_filter(engine, config, assembled);
      expect_flat_list(filtered, ref);
      auto result = core::launch_extension(engine, config, fx.device_query,
                                           fx.device_block, filtered);
      std::sort(result.extensions.begin(), result.extensions.end());
      EXPECT_EQ(result.extensions, expected)
          << "strategy " << static_cast<int>(strategy) << " window "
          << window_size;
      // The window kernel runs exactly the diagonal kernel's extensions;
      // the hit-based one extends every survivor.
      EXPECT_EQ(result.extensions_run,
                strategy == core::ExtensionStrategy::kHit
                    ? ref.survivors.size()
                    : reference_runs)
          << "strategy " << static_cast<int>(strategy) << " window "
          << window_size;
    }
  }
}

/// A query and subject residue whose BLOSUM62 score is `score`.
std::pair<std::uint8_t, std::uint8_t> pair_scoring(int score) {
  const auto& blosum = bio::Blosum62::instance();
  for (std::uint8_t q = 0; q < bio::kNumRealAminoAcids; ++q)
    for (std::uint8_t s = 0; s < bio::kNumRealAminoAcids; ++s)
      if (blosum.score(q, s) == score) return {q, s};
  throw std::invalid_argument("no BLOSUM62 pair scores " +
                              std::to_string(score));
}

/// One hand-built extension. `left` and `right` are the scores of the
/// positions beside the seed word, nearest first; past them five -4
/// positions end the extension unless a sequence edge comes first.
struct EdgeCase {
  const char* name = "";
  std::vector<int> left = {};
  std::vector<int> right = {};
  std::uint32_t left_off = 0;     ///< residues the left half adopts
  std::uint32_t right_off = 0;    ///< residues the right half adopts
  bool at_query_start = false;    ///< seed at query position 0
  bool at_query_end = false;      ///< word ends the query
  bool at_subject_start = false;  ///< seed at subject position 0
  bool at_subject_end = false;    ///< word ends the subject
  int copies = 1;                 ///< subjects sharing the query region
};

constexpr int kEdgeCopies = 12;

TEST(ExtensionKernels, WindowRoundEdgeCases) {
  const auto run_of = [](int n, int score) {
    return std::vector<int>(static_cast<std::size_t>(n), score);
  };
  // Best 2 at offset 0, tied at offset 1 (the same round at every window
  // size) and at every odd offset after it (later rounds).
  const auto ties = [](int zigzags) {
    std::vector<int> v = {2, 0};
    for (int i = 0; i < zigzags; ++i) v.insert(v.end(), {-1, 1});
    return v;
  };
  std::vector<int> ties_then_higher = ties(16);
  ties_then_higher.insert(ties_then_higher.end(), {3, 0});  // 5 at 34, 35

  const std::vector<EdgeCase> cases = {
      {.name = "query start: no left position",
       .right = {2, 2, -1, 3},
       .right_off = 4,
       .at_query_start = true},
      {.name = "subject start: no left position",
       .right = {3, -2, 4},
       .right_off = 3,
       .at_subject_start = true},
      // Offset 31 is every window size's last lane, offset 32 its first.
      {.name = "drop on the last lane",
       .left = run_of(27, 11),
       .right = run_of(27, 11),
       .left_off = 27,
       .right_off = 27},
      {.name = "drop on the first lane of a later round",
       .left = run_of(28, 11),
       .right = run_of(28, 11),
       .left_off = 28,
       .right_off = 28},
      // The first drop ends the half although the score then climbs past
      // its best and drops again, all in one round at window sizes 16
      // and 32.
      {.name = "drop, then a higher score in the same round",
       .left = {-4, -4, -4, -4, -4, 11, 11, 11},
       .right = {-4, -4, -4, -4, -4, 11, 11, 11}},
      {.name = "best reached again",
       .left = ties_then_higher,
       .right = ties(19),
       .left_off = 35,
       .right_off = 1},
      // Halves that end in round 0 beside halves that run five rounds at
      // window size 16; the copies alternate, so both share every warp.
      {.name = "right ends at once, left runs",
       .left = run_of(70, 11),
       .left_off = 70,
       .at_subject_end = true,
       .copies = kEdgeCopies},
      {.name = "left ends at once, right runs",
       .right = run_of(70, 11),
       .right_off = 70,
       .at_subject_start = true,
       .copies = kEdgeCopies},
      {.name = "subject end: no right position",
       .left = {11, -4, -4, 11},
       .left_off = 4,
       .at_subject_end = true},
      {.name = "query end: no right position",
       .left = {3, -2, 4},
       .left_off = 3,
       .at_query_end = true},
  };

  // The query holds each case's region in turn; each case has its own
  // subjects.
  const std::vector<int> word = {4, 4, 4};
  const std::vector<int> guard = run_of(5, -4);
  std::vector<std::uint8_t> query;
  struct Region {
    std::uint32_t qpos;
    std::uint32_t spos;
    std::vector<std::uint8_t> subject;
  };
  std::vector<Region> regions;
  for (const EdgeCase& c : cases) {
    // Sequence order: guard, left reversed, word, right, guard.
    std::vector<int> scores;
    if (!c.at_query_start && !c.at_subject_start)
      scores.insert(scores.end(), guard.begin(), guard.end());
    scores.insert(scores.end(), c.left.rbegin(), c.left.rend());
    const auto seed = static_cast<std::uint32_t>(scores.size());
    scores.insert(scores.end(), word.begin(), word.end());
    scores.insert(scores.end(), c.right.begin(), c.right.end());
    if (!c.at_query_end && !c.at_subject_end)
      scores.insert(scores.end(), guard.begin(), guard.end());

    std::vector<std::uint8_t> q_part, s_part;
    for (const int score : scores) {
      const auto [q, s] = pair_scoring(score);
      q_part.push_back(q);
      s_part.push_back(s);
    }
    // At a sequence edge the other sequence goes on, so that one edge
    // alone ends the half.
    const auto [q_pad, s_pad] = pair_scoring(-4);
    const std::size_t pad = 5;
    std::uint32_t q_seed = seed, s_seed = seed;
    if (c.at_query_start) {
      s_part.insert(s_part.begin(), pad, s_pad);
      s_seed += pad;
    }
    if (c.at_subject_start) {
      q_part.insert(q_part.begin(), pad, q_pad);
      q_seed += pad;
    }
    if (c.at_query_end) s_part.insert(s_part.end(), pad, s_pad);
    if (c.at_subject_end) q_part.insert(q_part.end(), pad, q_pad);
    regions.push_back(
        {static_cast<std::uint32_t>(query.size()) + q_seed, s_seed, s_part});
    query.insert(query.end(), q_part.begin(), q_part.end());
  }
  ASSERT_EQ(regions.front().qpos, 0u);
  ASSERT_EQ(regions.back().qpos + word.size(), query.size());

  // Subjects round-robin over the cases' copies, one hit each.
  std::vector<bio::Sequence> subjects;
  std::vector<std::uint64_t> hits;
  std::vector<std::size_t> case_of;  // by subject
  for (int copy = 0; copy < kEdgeCopies; ++copy) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (copy >= cases[i].copies) continue;
      const Region& r = regions[i];
      const auto seq = static_cast<std::uint32_t>(subjects.size());
      subjects.push_back({"edge" + std::to_string(seq), cases[i].name,
                          r.subject});
      hits.push_back(core::pack_hit(seq,
                                    static_cast<std::int32_t>(r.spos) -
                                        static_cast<std::int32_t>(r.qpos),
                                    r.spos));
      case_of.push_back(i);
    }
  }

  blast::SearchParams params;
  params.one_hit = true;              // every placed hit survives K4
  params.ungapped_cutoff = -1000000;  // and every extension is recorded
  const bio::SequenceDatabase db(std::move(subjects));
  const blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
  const bio::Pssm pssm(query, bio::Blosum62::instance());
  const core::QueryDevice device_query(query, lookup, pssm);
  const core::BlockDevice device_block(db, 0, db.size());
  const core::AssembledBins assembled = testref::make_bins({hits});
  std::uint64_t reference_runs = 0;
  const auto expected = testref::reference_extensions(
      testref::flat_reference(assembled, params), db, pssm, params,
      &reference_runs);
  ASSERT_EQ(expected.size(), hits.size());

  // The scalar reference ends every case where it was built to end.
  for (const blast::UngappedExtension& ext : expected) {
    const EdgeCase& c = cases[case_of[ext.seq]];
    const std::uint32_t qpos = regions[case_of[ext.seq]].qpos;
    EXPECT_EQ(qpos - ext.q_start, c.left_off) << c.name;
    EXPECT_EQ(ext.q_end - (qpos + 2), c.right_off) << c.name;
  }

  auto config = small_kernel_config();
  config.params = params;
  config.strategy = core::ExtensionStrategy::kDiagonal;
  simt::Engine engine;
  const auto filtered = core::launch_filter(engine, config, assembled);
  const auto diagonal = core::launch_extension(engine, config, device_query,
                                               device_block, filtered);
  EXPECT_EQ(diagonal.extensions_run, reference_runs);

  config.strategy = core::ExtensionStrategy::kWindow;
  for (const int window_size : {2, 4, 8, 16, 32}) {
    config.window_size = window_size;
    auto result = core::launch_extension(engine, config, device_query,
                                         device_block, filtered);
    std::sort(result.extensions.begin(), result.extensions.end());
    EXPECT_EQ(result.extensions, expected) << "window " << window_size;
    EXPECT_EQ(result.extensions_run, diagonal.extensions_run)
        << "window " << window_size;
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
