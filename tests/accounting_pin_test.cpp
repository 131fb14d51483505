// Pins the simulator's accounting. Two searches over a small generated
// database (query127 and query517) must produce these exact per-kernel
// counters: the warp steps, the memory requests and the sectors they touch,
// shared-memory passes and atomic passes. The values were taken from the
// simulator before its host-cost work (resident bin grid, mask arithmetic
// in the window collectives, per-op byte counts), which must change how
// fast a search simulates and nothing that it measures. The hit_sort and
// hit_filter rows were re-taken when K3 and K4 began to give each warp a
// run of consecutive bins; the hit_sort row again when K3 began to read
// the bins straight out of K1's grid (no hit_assemble launch), and the
// bin_scan and hit_filter rows when the device scan became
// reduce-then-scan and stopped reading its input twice (K4's count scan
// is part of the hit_filter row); the hit_sort and hit_filter rows again
// when K4 began to sort the bins of up to 32 hits in registers as it
// filters them, leaving K3 the longer bins. Every row was re-taken when
// the default grid became 64 bins per warp and K1 began to deal sequences
// over its blocks first: the bins, and so every later kernel's work, moved.
//
// Read-only-cache hits and modeled time stay out: the cache is keyed on
// host addresses, so they move with the heap layout. The sum of
// ld_transactions and rocache_hits does not: it counts every sector a load
// touched, hit or miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bio/generator.hpp"
#include "core/cublastp.hpp"
#include "simt/device_buffer.hpp"

namespace repro {
namespace {

struct Counters {
  std::uint64_t vec_ops = 0;
  std::uint64_t active_lane_sum = 0;
  std::uint64_t ld_requests = 0;
  std::uint64_t ld_bytes_requested = 0;
  std::uint64_t ld_sectors = 0;  ///< ld_transactions + rocache_hits
  std::uint64_t st_requests = 0;
  std::uint64_t st_bytes_requested = 0;
  std::uint64_t st_transactions = 0;
  std::uint64_t shared_ops = 0;
  std::uint64_t shared_conflict_passes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t atomic_serial_passes = 0;

  bool operator==(const Counters&) const = default;
};

void PrintTo(const Counters& c, std::ostream* os) {
  *os << "{" << c.vec_ops << ", " << c.active_lane_sum << ", "
      << c.ld_requests << ", " << c.ld_bytes_requested << ", "
      << c.ld_sectors << ", " << c.st_requests << ", "
      << c.st_bytes_requested << ", " << c.st_transactions << ", "
      << c.shared_ops << ", " << c.shared_conflict_passes << ", "
      << c.atomic_ops << ", " << c.atomic_serial_passes << "}";
}

void add(Counters& sum, const simt::KernelStats& s) {
  sum.vec_ops += s.vec_ops;
  sum.active_lane_sum += s.active_lane_sum;
  sum.ld_requests += s.ld_requests;
  sum.ld_bytes_requested += s.ld_bytes_requested;
  sum.ld_sectors += s.ld_transactions + s.rocache_hits;
  sum.st_requests += s.st_requests;
  sum.st_bytes_requested += s.st_bytes_requested;
  sum.st_transactions += s.st_transactions;
  sum.shared_ops += s.shared_ops;
  sum.shared_conflict_passes += s.shared_conflict_passes;
  sum.atomic_ops += s.atomic_ops;
  sum.atomic_serial_passes += s.atomic_serial_passes;
}

struct Measured {
  std::map<std::string, Counters> kernels;  ///< summed over both searches
  std::uint64_t bin_overflow_retries = 0;
};

/// One one-shot search of each query.
Measured measure() {
  const auto q127 = bio::make_benchmark_query(127).residues;
  const auto q517 = bio::make_benchmark_query(517).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(80);
  profile.homolog_fraction = 0.1;
  bio::DatabaseGenerator gen(profile, 2014);
  const bio::SequenceDatabase db = gen.generate(q517);

  core::Config config;
  config.db_blocks = 2;
  config.detection_blocks = 2;  // keep the simulated grid small for tests
  config.bin_capacity = 64;     // includes bin-overflow retries

  Measured out;
  for (const auto* query : {&q127, &q517}) {
    const core::SearchReport report =
        core::CuBlastp(config).search(*query, db);
    for (const auto& [name, stats] : report.profile.kernels())
      if (stats.vec_ops != 0) add(out.kernels[name], stats);
    out.bin_overflow_retries += report.bin_overflow_retries;
  }
  return out;
}

const std::map<std::string, Counters>& pinned() {
  static const std::map<std::string, Counters> values = {
      // {vec_ops, active_lane_sum, ld_requests, ld_bytes_requested,
      //  ld_sectors, st_requests, st_bytes_requested, st_transactions,
      //  shared_ops, shared_conflict_passes, atomic_ops,
      //  atomic_serial_passes}
      {"bin_scan",
       {5052, 136780, 392, 33424, 1160, 172, 16672, 556, 772, 5252, 0, 0}},
      {"hit_detection",
       {161829, 2487694, 28773, 1172348, 212401, 11356, 735392, 75585, 14931,
        8576, 11393, 10538}},
      {"hit_filter",
       {78431, 2336317, 2969, 500848, 17598, 3301, 235480, 9855, 68, 516, 0,
        0}},
      {"hit_sort",
       {23098, 694498, 420, 69600, 2249, 420, 69600, 2492, 2108, 992, 0, 0}},
      {"ungapped_extension",
       {493056, 10501307, 43856, 2899047, 101408, 438, 1776, 444, 43803,
        113999, 0, 0}},
  };
  return values;
}

void expect_pinned(const Measured& measured) {
  // query517's bins overflow at capacity 64, so the pin covers K1's
  // capacity-growth retries too.
  EXPECT_EQ(measured.bin_overflow_retries, 2u);
  for (const auto& [name, counters] : pinned()) {
    const auto it = measured.kernels.find(name);
    ASSERT_NE(it, measured.kernels.end()) << "kernel " << name
                                          << " did not run";
    EXPECT_EQ(it->second, counters) << "kernel " << name;
  }
  for (const auto& [name, counters] : measured.kernels)
    EXPECT_EQ(pinned().count(name), 1u) << "unpinned kernel " << name;
}

TEST(AccountingPin, AddressIndependentCountersMatchPinnedValues) {
  expect_pinned(measure());
}

TEST(AccountingPin, HeapLayoutDoesNotMoveTheCounters) {
  // Allocate unrelated host and device buffers of odd sizes and free every
  // other one, so the search's buffers land at other addresses than in a
  // search on a fresh heap.
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> host;
  std::vector<std::unique_ptr<simt::DeviceVector<std::uint32_t>>> device;
  for (std::size_t i = 0; i < 64; ++i) {
    host.push_back(
        std::make_unique<std::vector<std::uint8_t>>(97 + 1031 * i, 1));
    device.push_back(
        std::make_unique<simt::DeviceVector<std::uint32_t>>(33 + 517 * i, 2u));
  }
  for (std::size_t i = 0; i < host.size(); i += 2) {
    host[i].reset();
    device[i].reset();
  }
  expect_pinned(measure());
}

}  // namespace
}  // namespace repro
