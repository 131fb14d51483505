// ResidentBinGrid: each EngineShard keeps one bin grid for the whole
// session, like the device database image. The first block attempt
// allocates it; every later attempt, block and search re-arms it. These
// tests pin that the grid is allocated once, never leaks, dies with its
// session, grows when a query's bins overflow, and never changes what a
// later search reports. The injected-fault and initcheck cases live with
// their suites (ChaosEquivalence, InitCheck); the leakcheck case here is
// named for its suite (LeakCheck).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bio/generator.hpp"
#include "core/search_session.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

Workload make_workload() {
  Workload w;
  for (std::size_t i = 0; i < 3; ++i)
    w.queries.push_back(
        bio::make_benchmark_query(113 + 41 * i, 700 + i).residues);
  auto profile = bio::DatabaseProfile::swissprot_like(60);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, 41);
  w.db = gen.generate(w.queries.front());
  return w;
}

core::Config base_config() {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;  // keep the simulated grid small for tests
  return config;
}

std::uint64_t grid_bytes(const core::BinGrid& grid) {
  return grid.slots.size() * sizeof(std::uint64_t) +
         grid.counts.size() * sizeof(std::uint32_t) +
         grid.overflow.size() * sizeof(std::uint32_t);
}

/// Address-independent per-kernel stats (read-only-cache hits, sector
/// transactions and modeled time are keyed on host addresses, and a
/// session's cache is warm from its earlier searches).
void expect_stats_equal(const simt::KernelStats& a, const simt::KernelStats& b,
                        const std::string& name) {
  EXPECT_EQ(a.vec_ops, b.vec_ops) << name;
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum) << name;
  EXPECT_EQ(a.ld_requests, b.ld_requests) << name;
  EXPECT_EQ(a.ld_bytes_requested, b.ld_bytes_requested) << name;
  EXPECT_EQ(a.ld_transactions + a.rocache_hits,
            b.ld_transactions + b.rocache_hits)
      << name;
  EXPECT_EQ(a.st_requests, b.st_requests) << name;
  EXPECT_EQ(a.st_bytes_requested, b.st_bytes_requested) << name;
  EXPECT_EQ(a.st_transactions, b.st_transactions) << name;
  EXPECT_EQ(a.shared_ops, b.shared_ops) << name;
  EXPECT_EQ(a.shared_conflict_passes, b.shared_conflict_passes) << name;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << name;
  EXPECT_EQ(a.atomic_serial_passes, b.atomic_serial_passes) << name;
}

// Named for leakcheck, so the checker jobs that select InitCheck/LeakCheck
// run it.
TEST(LeakCheck, SessionAllocatesOneBinGridAndFreesItWithTheSession) {
  const auto w = make_workload();
  auto config = base_config();
  config.simtcheck = true;  // per-query leakcheck
  const simt::DeviceAllocationStats before = simt::device_allocation_stats();
  {
    core::SearchSession session(config, w.db);
    EXPECT_EQ(session.shard(0).bin_grid(), nullptr);

    const core::SearchReport first = session.search(w.queries[0]);
    EXPECT_EQ(first.bin_overflow_retries, 0u);
    EXPECT_EQ(first.hazards.count(simt::HazardKind::kDeviceLeak), 0u)
        << first.hazards.summary();
    const core::BinGrid* grid = session.shard(0).bin_grid();
    ASSERT_NE(grid, nullptr);
    const std::uint64_t* slots = grid->slots.data();
    EXPECT_EQ(grid->slots.size(),
              core::BinGrid::slot_count(config.detection_warps(),
                                        config.num_bins_per_warp,
                                        static_cast<std::uint32_t>(
                                            session.config().bin_capacity)));
    // What stays resident after the first search: the database image and
    // exactly one grid, although the search ran three blocks.
    const simt::DeviceAllocationStats resident =
        simt::device_allocation_stats();
    EXPECT_EQ(resident.resident_bytes - before.resident_bytes,
              session.db_device_bytes() + grid_bytes(*grid));

    for (std::size_t q = 1; q < w.queries.size(); ++q) {
      const core::SearchReport report = session.search(w.queries[q]);
      EXPECT_EQ(report.hazards.count(simt::HazardKind::kDeviceLeak), 0u)
          << report.hazards.summary();
      ASSERT_EQ(session.shard(0).bin_grid(), grid);
      EXPECT_EQ(grid->slots.data(), slots) << "query " << q;
      const simt::DeviceAllocationStats now = simt::device_allocation_stats();
      EXPECT_EQ(now.resident_allocations, resident.resident_allocations);
      EXPECT_EQ(now.resident_bytes, resident.resident_bytes);
    }
    simt::HazardReport leaks;
    EXPECT_EQ(session.leak_check(leaks), 0u) << leaks.summary();
  }
  // A destroyed session holds nothing, the grid included.
  const simt::DeviceAllocationStats after = simt::device_allocation_stats();
  EXPECT_EQ(after.live_allocations, before.live_allocations);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.resident_allocations, before.resident_allocations);
}

TEST(ResidentBinGrid, EveryShardKeepsItsOwnGrid) {
  // Each shard allocates (and tags resident) a grid of its own in its
  // first search, and keeps it for the next.
  const auto w = make_workload();
  auto config = base_config();
  config.shards = 3;
  config.simtcheck = true;
  const simt::DeviceAllocationStats before = simt::device_allocation_stats();
  {
    core::SearchSession fleet(config, w.db);
    const core::SearchReport first = fleet.search(w.queries[0]);
    EXPECT_EQ(first.hazards.total, 0u) << first.hazards.summary();
    std::vector<const std::uint64_t*> slots;
    for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
      const core::BinGrid* grid = fleet.shard(s).bin_grid();
      ASSERT_NE(grid, nullptr) << "shard " << s;
      slots.push_back(grid->slots.data());
    }
    const core::SearchReport second = fleet.search(w.queries[1]);
    EXPECT_EQ(second.hazards.total, 0u) << second.hazards.summary();
    for (std::size_t s = 0; s < fleet.num_shards(); ++s)
      EXPECT_EQ(fleet.shard(s).bin_grid()->slots.data(), slots[s])
          << "shard " << s;
    simt::HazardReport leaks;
    EXPECT_EQ(fleet.leak_check(leaks), 0u) << leaks.summary();
  }
  const simt::DeviceAllocationStats after = simt::device_allocation_stats();
  EXPECT_EQ(after.live_allocations, before.live_allocations);
  EXPECT_EQ(after.resident_allocations, before.resident_allocations);
}

TEST(ResidentBinGrid, OverflowGrowsTheGridWithoutChangingLaterSearches) {
  const auto w = make_workload();
  const auto config = base_config();
  core::SearchSession session(config, w.db);
  {
    // The first detection launch reports overflow: K1 reruns at twice the
    // capacity, which the grid has no room for.
    util::FaultScope faults("core.bin_overflow:nth=1", 7);
    const core::SearchReport forced = session.search(w.queries[0]);
    EXPECT_EQ(forced.bin_overflow_retries, 1u);
    EXPECT_EQ(forced.faults_encountered, 1u);
  }
  const core::BinGrid* grid = session.shard(0).bin_grid();
  ASSERT_NE(grid, nullptr);
  const auto capacity =
      static_cast<std::uint32_t>(session.config().bin_capacity);
  EXPECT_EQ(grid->slots.size(),
            core::BinGrid::slot_count(grid->num_warps, grid->num_bins,
                                      2 * capacity));

  // The next query starts again at the configured capacity in the larger
  // grid, and reports what it reports on a fresh session.
  const core::SearchReport next = session.search(w.queries[1]);
  EXPECT_EQ(session.shard(0).bin_grid()->slots.size(), grid->slots.size());
  const core::SearchReport fresh =
      core::SearchSession(config, w.db).search(w.queries[1]);
  EXPECT_EQ(next.result.alignments, fresh.result.alignments);
  EXPECT_EQ(next.result.counters.hits_detected,
            fresh.result.counters.hits_detected);
  EXPECT_EQ(next.result.counters.hits_after_filter,
            fresh.result.counters.hits_after_filter);
  EXPECT_EQ(next.result.counters.ungapped_extensions,
            fresh.result.counters.ungapped_extensions);
  EXPECT_EQ(next.result.counters.gapped_extensions,
            fresh.result.counters.gapped_extensions);
  EXPECT_EQ(next.bin_overflow_retries, fresh.bin_overflow_retries);
  for (const auto& [name, stats] : fresh.profile.kernels()) {
    if (name == "h2d_block") continue;  // the fresh session uploads the db
    ASSERT_TRUE(next.profile.has(name)) << name;
    expect_stats_equal(next.profile.at(name), stats, name);
  }
}

}  // namespace
}  // namespace repro
