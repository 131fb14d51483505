// Tests for the GPU algorithm primitives: device prefix scan and the
// segmented bitonic sort, validated against the standard library across
// randomized sizes (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "gpualgo/scan.hpp"
#include "gpualgo/segsort.hpp"
#include "simt/device_buffer.hpp"
#include "simt/simtcheck.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

class ScanSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSweep, MatchesStdExclusiveScan) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  std::vector<std::uint32_t> input(n);
  for (auto& v : input) v = static_cast<std::uint32_t>(rng.below(100));

  simt::Engine engine;
  const auto got = gpualgo::exclusive_scan_device(engine, input);

  std::vector<std::uint32_t> expected(n + 1, 0);
  std::partial_sum(input.begin(), input.end(), expected.begin() + 1);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSweep,
                         ::testing::Values(0, 1, 2, 31, 32, 33, 127, 128,
                                           129, 500, 1024, 4096, 10000,
                                           16385));

TEST(Scan, AllZeros) {
  simt::Engine engine;
  const std::vector<std::uint32_t> input(300, 0);
  const auto got = gpualgo::exclusive_scan_device(engine, input);
  for (const auto v : got) EXPECT_EQ(v, 0u);
}

TEST(Scan, EveryOutputWordWrittenByALaunch) {
  // 40,000 counts are 313 tiles, so the tile totals take a second level of
  // reduce-then-scan. The output is left unfilled, and initcheck counts a
  // word as written only when a kernel stores it: the second scan, which
  // reads every word of the first one's output, would report one the host
  // filled in.
  simt::Engine engine;
  engine.set_simtcheck_enabled(true);
  util::Rng rng(40000);
  simt::DeviceVector<std::uint32_t> counts(40000);
  for (auto& c : counts) c = static_cast<std::uint32_t>(rng.below(9));
  simt::mark_device_initialized(counts.data(),
                                counts.size() * sizeof(std::uint32_t));

  const auto offsets = gpualgo::exclusive_scan_device(engine, counts, "scan");
  const auto twice = gpualgo::exclusive_scan_device(engine, offsets, "scan");
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();

  std::vector<std::uint32_t> expected(counts.size() + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), expected.begin() + 1);
  EXPECT_EQ(std::vector<std::uint32_t>(offsets.begin(), offsets.end()),
            expected);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(twice[i], sum) << i;
    sum += expected[i];
  }
  EXPECT_EQ(twice.back(), sum);
}

TEST(Scan, CoalescedLoadsFromAlignedBuffer) {
  // The tiled scan reads input contiguously: from a device-aligned buffer,
  // load efficiency should be near-perfect (the pattern the assembling
  // kernel relies on).
  simt::Engine engine;
  simt::DeviceVector<std::uint32_t> input(4096, 1);
  (void)gpualgo::exclusive_scan_device(engine, input, "scan_eff");
  const auto& stats = engine.profile().at("scan_eff");
  EXPECT_GT(stats.global_load_efficiency(), 0.9);
}

TEST(Scan, MisalignedBufferHalvesEfficiency) {
  // The mirror image of the aligned case: a buffer offset by one element
  // straddles segment boundaries, exactly like forgetting cudaMalloc
  // alignment on real hardware.
  simt::Engine engine;
  simt::DeviceVector<std::uint32_t> backing(4097, 1);
  (void)gpualgo::exclusive_scan_device(
      engine, std::span(backing).subspan(1), "scan_misaligned");
  // At 32-byte sector granularity a 4-byte shift costs one extra sector
  // per warp access: efficiency drops measurably below the aligned case.
  const auto& stats = engine.profile().at("scan_misaligned");
  EXPECT_LT(stats.global_load_efficiency(), 0.9);
}

struct SegsortCase {
  std::size_t num_segments;
  std::size_t max_segment;
  std::uint64_t seed;
};

class SegsortSweep : public ::testing::TestWithParam<SegsortCase> {};

TEST_P(SegsortSweep, EachSegmentSortedAscending) {
  const auto param = GetParam();
  util::Rng rng(param.seed);

  // Unpadded segments of random length, as the assembling kernel lays out.
  std::vector<std::uint64_t> data;
  std::vector<std::uint32_t> offsets{0};
  for (std::size_t s = 0; s < param.num_segments; ++s) {
    const std::size_t n = rng.below(param.max_segment + 1);
    for (std::size_t i = 0; i < n; ++i) data.push_back(rng() >> 1);
    offsets.push_back(static_cast<std::uint32_t>(data.size()));
  }
  auto expected = data;
  for (std::size_t s = 0; s < param.num_segments; ++s)
    std::sort(expected.begin() + offsets[s], expected.begin() + offsets[s + 1]);

  simt::Engine engine;
  gpualgo::segmented_sort_u64(engine, data, offsets);
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegsortSweep,
    ::testing::Values(SegsortCase{1, 1, 1}, SegsortCase{1, 4, 2},
                      SegsortCase{1, 1000, 3}, SegsortCase{20, 64, 4},
                      SegsortCase{100, 16, 5}, SegsortCase{5, 513, 6},
                      SegsortCase{64, 0, 7}, SegsortCase{3, 2048, 8}));

// Lengths on both sides of each path: registers (<= 32 keys), the warp's
// shared-memory slice (<= 1024), and in place in global memory. Keys repeat
// and include kSortPad itself, which must sort like any other key.
class SegsortLengthSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SegsortLengthSweep, SortsUnpaddedSegmentWithDuplicatesAndPadKeys) {
  const std::uint32_t n = GetParam();
  util::Rng rng(7000 + n);
  // The segment sits between two short neighbours that must stay intact.
  std::vector<std::uint64_t> data;
  auto append = [&](std::uint32_t len) {
    for (std::uint32_t i = 0; i < len; ++i) {
      const std::uint64_t r = rng.below(8);
      data.push_back(r == 0 ? gpualgo::kSortPad : rng.below(n / 4 + 2));
    }
    return static_cast<std::uint32_t>(data.size());
  };
  const std::vector<std::uint32_t> offsets = {0, append(5), append(n),
                                              append(3)};
  auto expected = data;
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s)
    std::sort(expected.begin() + offsets[s], expected.begin() + offsets[s + 1]);

  simt::Engine engine;
  gpualgo::segmented_sort_u64(engine, data, offsets, "segsort_len");
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(Lengths, SegsortLengthSweep,
                         ::testing::Values(0u, 1u, 2u, 31u, 32u, 33u, 64u,
                                           65u, 1024u, 1025u, 4096u, 4097u,
                                           5000u));

TEST(Segsort, PackedRunsOfMixedLengths) {
  // A warp takes 32 consecutive segments and sorts the short ones several
  // to a register network, each padded to the pack's width. Runs here mix
  // every length class in ascending, descending, shuffled and alternating
  // order, and the orders straddle run boundaries (four leading empty
  // segments shift them). Keys repeat and include kSortPad.
  const std::vector<std::uint32_t> lengths = {0,  1,  2,  3,  4,  5,
                                              8,  9,  16, 17, 31, 32,
                                              33, 64, 1024, 1025};
  util::Rng rng(2020);
  std::vector<std::uint32_t> order = lengths;
  std::vector<std::uint32_t> all(4, 0);
  all.insert(all.end(), order.begin(), order.end());
  all.insert(all.end(), order.rbegin(), order.rend());
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    all.insert(all.end(), order.begin(), order.end());
  }
  for (std::size_t i = 0; i < lengths.size() / 2; ++i) {
    all.push_back(lengths[i]);
    all.push_back(lengths[lengths.size() - 1 - i]);
  }

  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> offsets{0};
  for (const std::uint32_t n : all) {
    for (std::uint32_t i = 0; i < n; ++i)
      keys.push_back(rng.below(6) == 0 ? gpualgo::kSortPad
                                       : rng.below(n / 2 + 2));
    offsets.push_back(static_cast<std::uint32_t>(keys.size()));
  }
  auto expected = keys;
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s)
    std::sort(expected.begin() + offsets[s], expected.begin() + offsets[s + 1]);

  // Offsets from host memory (staged) and from a device buffer.
  simt::Engine engine;
  std::vector<std::uint64_t> from_host = keys;
  gpualgo::segmented_sort_u64(engine, from_host, offsets);
  EXPECT_EQ(from_host, expected);
  simt::DeviceVector<std::uint64_t> from_device(keys.begin(), keys.end());
  const simt::DeviceVector<std::uint32_t> device_offsets(offsets.begin(),
                                                         offsets.end());
  gpualgo::segmented_sort_u64(engine, from_device, device_offsets);
  EXPECT_TRUE(std::equal(from_device.begin(), from_device.end(),
                         expected.begin(), expected.end()));
}

TEST(Segsort, ReadsEachSegmentFromItsRow) {
  // K3 reads bin s from row s of K1's grid, s * capacity keys in, and
  // writes it sorted to its place in the output. The pitch here, 1031, is
  // neither the launch's warp count nor a power of two. Segments of every
  // path's edge lengths (0, 1, 2, 31, 32, 33, 1024, 1025) come in
  // ascending, descending and shuffled order, then a run of one- and
  // two-key segments; past each segment's length its row holds small
  // keys that would sort first if read, and the output starts as garbage.
  constexpr std::uint32_t kPitch = 1031;
  const std::vector<std::uint32_t> edges = {0, 1, 2, 31, 32, 33, 1024, 1025};
  util::Rng rng(1031);
  std::vector<std::uint32_t> lengths = edges;
  lengths.insert(lengths.end(), edges.rbegin(), edges.rend());
  std::vector<std::uint32_t> shuffled = edges;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  lengths.insert(lengths.end(), shuffled.begin(), shuffled.end());
  for (int i = 0; i < 40; ++i)
    lengths.push_back(static_cast<std::uint32_t>(1 + rng.below(2)));

  simt::DeviceVector<std::uint64_t> rows(lengths.size() * kPitch);
  for (auto& key : rows) key = rng.below(4);  // garbage
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint64_t> expected;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    for (std::uint32_t i = 0; i < lengths[s]; ++i) {
      const std::uint64_t key = rng.below(7) == 0
                                    ? gpualgo::kSortPad
                                    : 100 + rng.below(lengths[s] / 2 + 2);
      rows[s * kPitch + i] = key;
      expected.push_back(key);
    }
    offsets.push_back(static_cast<std::uint32_t>(expected.size()));
    std::sort(expected.begin() + offsets[s], expected.end());
  }
  const std::vector<std::uint64_t> rows_before(rows.begin(), rows.end());

  simt::Engine engine;
  simt::DeviceVector<std::uint64_t> data(expected.size(), 0x5eedull);
  gpualgo::segmented_sort_u64(engine, data, offsets, "segsort_rows",
                              {rows.data(), kPitch});
  EXPECT_TRUE(std::equal(data.begin(), data.end(), expected.begin(),
                         expected.end()));
  EXPECT_TRUE(std::equal(rows.begin(), rows.end(), rows_before.begin(),
                         rows_before.end()));
}

TEST(Segsort, LongOnlyLeavesShortSegmentsAlone) {
  // sort_long_segments_u64 sorts the segments longer than a warp and
  // neither reads nor writes the others: in place they keep their order,
  // and from rows their output is never written.
  const std::vector<std::uint32_t> lengths = {5, 33, 0, 32, 1, 1025, 2, 64};
  util::Rng rng(33);
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint64_t> keys;
  for (const std::uint32_t n : lengths) {
    for (std::uint32_t i = 0; i < n; ++i) keys.push_back(rng.below(1000));
    offsets.push_back(static_cast<std::uint32_t>(keys.size()));
  }
  std::vector<std::uint64_t> expected = keys;
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > gpualgo::kPackMaxKeys)
      std::sort(expected.begin() + offsets[s],
                expected.begin() + offsets[s + 1]);

  simt::Engine engine;
  std::vector<std::uint64_t> in_place = keys;
  gpualgo::sort_long_segments_u64(engine, in_place, offsets, "long_only");
  EXPECT_EQ(in_place, expected);

  constexpr std::uint32_t kPitch = 1100;
  simt::DeviceVector<std::uint64_t> rows(lengths.size() * kPitch);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    std::copy(keys.begin() + offsets[s], keys.begin() + offsets[s + 1],
              rows.begin() + static_cast<std::ptrdiff_t>(s * kPitch));
  simt::DeviceVector<std::uint64_t> out(keys.size(), 0x5eedull);
  gpualgo::sort_long_segments_u64(engine, out, offsets, "long_only",
                                  {rows.data(), kPitch});
  for (std::size_t s = 0; s < lengths.size(); ++s)
    for (std::uint32_t i = offsets[s]; i < offsets[s + 1]; ++i)
      EXPECT_EQ(out[i], lengths[s] > gpualgo::kPackMaxKeys ? expected[i]
                                                           : 0x5eedull)
          << "segment " << s << " key " << i - offsets[s];
}

TEST(Segsort, AlreadySortedStaysSorted) {
  std::vector<std::uint64_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  const std::vector<std::uint32_t> offsets = {0, 256};
  simt::Engine engine;
  gpualgo::segmented_sort_u64(engine, data, offsets);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(Segsort, StressManyRandomSegments) {
  util::Rng rng(99);
  std::vector<std::uint64_t> data;
  std::vector<std::uint32_t> offsets{0};
  for (int s = 0; s < 300; ++s) {
    const std::size_t n = rng.below(128);
    for (std::size_t i = 0; i < n; ++i) data.push_back(rng() >> 1);
    offsets.push_back(static_cast<std::uint32_t>(data.size()));
  }
  simt::Engine engine;
  gpualgo::segmented_sort_u64(engine, data, offsets);
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s)
    EXPECT_TRUE(std::is_sorted(data.begin() + offsets[s],
                               data.begin() + offsets[s + 1]));
}

TEST(Segsort, OnlyMidLengthSegmentsUseSharedMemory) {
  // Segments of <= 32 keys never leave registers: no shared memory, so the
  // launch keeps full occupancy. A longer one takes a slice per warp sized
  // to it.
  std::vector<std::uint64_t> data(40 + 100);
  std::iota(data.rbegin(), data.rend(), 0);
  simt::Engine engine;
  gpualgo::segmented_sort_u64(engine, data,
                              std::vector<std::uint32_t>{0, 20, 40}, "short");
  const auto& short_only = engine.profile().at("short");
  EXPECT_EQ(short_only.shared_bytes, 0u);
  EXPECT_DOUBLE_EQ(short_only.occupancy, 1.0);
  EXPECT_EQ(short_only.shared_ops, 0u);

  gpualgo::segmented_sort_u64(engine, data,
                              std::vector<std::uint32_t>{0, 40, 140}, "mid");
  const auto& mid = engine.profile().at("mid");
  EXPECT_EQ(mid.shared_bytes, 4 * 100 * sizeof(std::uint64_t));
  EXPECT_GT(mid.shared_ops, 0u);
  EXPECT_TRUE(std::is_sorted(data.begin() + 40, data.end()));
}

TEST(NextPow2, Values) {
  EXPECT_EQ(gpualgo::next_pow2(0), 1u);
  EXPECT_EQ(gpualgo::next_pow2(1), 1u);
  EXPECT_EQ(gpualgo::next_pow2(2), 2u);
  EXPECT_EQ(gpualgo::next_pow2(3), 4u);
  EXPECT_EQ(gpualgo::next_pow2(1024), 1024u);
  EXPECT_EQ(gpualgo::next_pow2(1025), 2048u);
}

}  // namespace
}  // namespace repro
