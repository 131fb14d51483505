// Tests for the GPU algorithm primitives: device prefix scan and the
// warp-per-segment bitonic sort, validated against the standard library
// across randomized sizes (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "gpualgo/scan.hpp"
#include "gpualgo/segsort.hpp"
#include "simt/device_buffer.hpp"
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
  EXPECT_EQ(got, expected);
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
