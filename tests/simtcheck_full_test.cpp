// Initcheck + leakcheck (simt/simtcheck.hpp): deliberately-buggy patterns
// that must trip the definedness and allocation-lifetime detectors, clean
// patterns that must stay silent (alloc_zeroed, transfer-style
// construction, explicit marks, kernel writes), and determinism of the
// reports across engine worker counts. The production surfaces run clean
// in simtcheck_clean_test.cpp; this file owns the injected defects.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bins.hpp"
#include "simt/device_buffer.hpp"
#include "simt/engine.hpp"
#include "simt/simtcheck.hpp"

namespace repro {
namespace {

simt::LaunchConfig launch_shape(const char* name, int grid_blocks = 1,
                                int block_threads = 128) {
  simt::LaunchConfig config;
  config.name = name;
  config.grid_blocks = grid_blocks;
  config.block_threads = block_threads;
  return config;
}

simt::Engine checked_engine(int workers = 1) {
  simt::Engine engine;
  engine.set_simtcheck_enabled(true);
  engine.set_workers(workers);
  return engine;
}

// ---------------------------------------------------------------------------
// Initcheck: shared memory.
// ---------------------------------------------------------------------------

TEST(InitCheck, SharedReadBeforeWriteDetected) {
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_uninit", 1, 64),
                [](simt::BlockCtx& ctx) {
                  // Plain alloc models __shared__ garbage: reading it before
                  // any lane wrote is the classic missing-prologue-memset bug.
                  auto buf = ctx.shared().alloc<std::uint32_t>(8);
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    if (w.warp_in_block() == 0)
                      w.if_then([](int lane) { return lane == 0; }, [&] {
                        w.sh_gather(std::span<const std::uint32_t>(buf), idx,
                                    vals);
                      });
                  });
                });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.count(simt::HazardKind::kSharedUninitRead), 1u);
  ASSERT_FALSE(report.records.empty());
  const auto& rec = report.records[0];
  EXPECT_EQ(rec.kind, simt::HazardKind::kSharedUninitRead);
  EXPECT_EQ(rec.kernel, "shared_uninit");
  EXPECT_EQ(rec.block, 0);
  EXPECT_EQ(rec.byte_offset, 0u);
  EXPECT_EQ(rec.extent, sizeof(std::uint32_t));
}

TEST(InitCheck, SharedAtomicOnUninitializedDetected) {
  // An atomic RMW reads before it writes, so accumulating into garbage is
  // still an initcheck hazard — exactly the bug alloc_zeroed exists to
  // prevent in the detection kernel's per-warp bin counters.
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_uninit_atomic", 1, 64),
                [](simt::BlockCtx& ctx) {
                  auto buf = ctx.shared().alloc<std::uint32_t>(4);
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> one{};
                    simt::LaneArray<std::uint32_t> old{};
                    one.fill(1);
                    if (w.warp_in_block() == 0)
                      w.if_then([](int lane) { return lane == 0; },
                                [&] { w.atomic_add_shared(buf, idx, one, old); });
                  });
                });
  EXPECT_EQ(engine.hazards().count(simt::HazardKind::kSharedUninitRead), 1u);
}

TEST(InitCheck, AllocZeroedAndWriteThenReadAreClean) {
  auto engine = checked_engine();
  engine.launch(
      launch_shape("shared_defined", 1, 64), [](simt::BlockCtx& ctx) {
        // alloc_zeroed models a declared cooperative prologue memset: the
        // bytes are defined from birth, atomics and reads are silent.
        auto zeroed = ctx.shared().alloc_zeroed<std::uint32_t>(4);
        // Plain alloc written in region 1 and read in region 2 is the
        // ordinary produce/consume pattern and must stay silent too.
        auto staged = ctx.shared().alloc<std::uint32_t>(4);
        ctx.par([&](simt::WarpExec& w) {
          simt::LaneArray<std::uint32_t> idx{};
          simt::LaneArray<std::uint32_t> one{};
          simt::LaneArray<std::uint32_t> old{};
          one.fill(1);
          if (w.warp_in_block() == 0)
            w.if_then([](int lane) { return lane == 0; }, [&] {
              w.atomic_add_shared(zeroed, idx, one, old);
              w.sh_scatter(staged, idx, one);
            });
        });
        ctx.par([&](simt::WarpExec& w) {
          simt::LaneArray<std::uint32_t> idx{};
          simt::LaneArray<std::uint32_t> vals{};
          if (w.warp_in_block() == 1)
            w.if_then([](int lane) { return lane == 0; }, [&] {
              w.sh_gather(std::span<const std::uint32_t>(zeroed), idx, vals);
              w.sh_gather(std::span<const std::uint32_t>(staged), idx, vals);
            });
        });
      });
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();
}

TEST(InitCheck, ReallocAfterResetRepoisons) {
  // Writing a span, resetting the arena, and re-allocating the same bytes
  // starts a new lifetime: the old definedness must not leak through.
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_realloc", 1, 32),
                [](simt::BlockCtx& ctx) {
                  auto first = ctx.shared().alloc<std::uint32_t>(1);
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; },
                              [&] { w.sh_scatter(first, idx, vals); });
                  });
                  ctx.shared().reset();
                  auto second = ctx.shared().alloc<std::uint32_t>(1);
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; }, [&] {
                      w.sh_gather(std::span<const std::uint32_t>(second), idx,
                                  vals);
                    });
                  });
                });
  EXPECT_EQ(engine.hazards().count(simt::HazardKind::kSharedUninitRead), 1u);
}

// ---------------------------------------------------------------------------
// Initcheck: device memory.
// ---------------------------------------------------------------------------

TEST(InitCheck, DeviceUnwrittenReadDetected) {
  auto engine = checked_engine();
  // Value-construction models cudaMalloc without a transfer: the bytes
  // exist but were never staged, so a kernel gather is an uninit read.
  simt::DeviceVector<std::uint32_t> buf(8);
  engine.launch(launch_shape("device_uninit", 1, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; },
                              [&] { w.gather(buf.data(), idx, vals); });
                  });
                });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.count(simt::HazardKind::kGlobalUninitRead), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].address,
            reinterpret_cast<std::uintptr_t>(buf.data()));
  EXPECT_EQ(report.records[0].extent, sizeof(std::uint32_t));
}

TEST(InitCheck, TransferConstructionAndExplicitMarkAreClean) {
  auto engine = checked_engine();
  // Fill-construction goes through the allocator's construct hook — the
  // cudaMemcpy/cudaMemset analogue — so the bytes are defined.
  simt::DeviceVector<std::uint32_t> staged(8, 7u);
  // Host element-loop staging bypasses the hook (operator[] is a raw
  // write); mark_device_initialized is the declared H2D for that idiom.
  simt::DeviceVector<std::uint32_t> looped(8);
  for (std::size_t i = 0; i < looped.size(); ++i)
    looped[i] = static_cast<std::uint32_t>(i);
  simt::mark_device_initialized(looped.data(),
                                looped.size() * sizeof(std::uint32_t));
  engine.launch(launch_shape("device_defined", 1, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; }, [&] {
                      w.gather(staged.data(), idx, vals);
                      w.gather(looped.data(), idx, vals);
                    });
                  });
                });
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();
}

TEST(InitCheck, KernelWriteDefinesAcrossLaunches) {
  // A kernel that writes a device word defines it for every later launch:
  // the finalize step unions each block's write set into the shadow, the
  // way real device memory keeps what kernels stored.
  auto engine = checked_engine();
  simt::DeviceVector<std::uint32_t> buf(8);
  engine.launch(launch_shape("device_writer", 1, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    vals.fill(41);
                    w.if_then([](int lane) { return lane == 0; },
                              [&] { w.scatter(buf.data(), idx, vals); });
                  });
                });
  engine.launch(launch_shape("device_reader", 1, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; },
                              [&] { w.gather(buf.data(), idx, vals); });
                  });
                });
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();
}

/// Reads slot 0 of `grid` from lane 0 of a one-warp launch.
void read_first_slot(simt::Engine& engine, const core::BinGrid& grid) {
  engine.launch(launch_shape("bin_reader", 1, 32), [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<std::uint64_t> vals{};
      w.if_then([](int lane) { return lane == 0; },
                [&] { w.gather(grid.slots.data(), idx, vals); });
    });
  });
}

TEST(InitCheck, RearmedBinGridSlotReadBeforeWriteDetected) {
  // A session re-arms one bin grid for every block attempt instead of
  // allocating a fresh one. Only slots claimed in this launch may be read
  // back, so re-arming marks every slot undefined again: a slot written
  // before the re-arm reads as garbage, as in a fresh cudaMalloc.
  auto engine = checked_engine();
  core::BinGrid grid(1, 1, 4);
  engine.launch(launch_shape("bin_writer", 1, 32), [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<std::uint64_t> vals{};
      vals.fill(7);
      w.if_then([](int lane) { return lane == 0; },
                [&] { w.scatter(grid.slots.data(), idx, vals); });
    });
  });
  read_first_slot(engine, grid);
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();

  grid.rearm(4);
  read_first_slot(engine, grid);
  const auto& report = engine.hazards();
  EXPECT_EQ(report.count(simt::HazardKind::kGlobalUninitRead), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].address,
            reinterpret_cast<std::uintptr_t>(grid.slots.data()));
  EXPECT_EQ(report.records[0].extent, sizeof(std::uint64_t));
}

TEST(InitCheck, RearmPoisonsAGridAllocatedBeforeTheShadowSwitch) {
  // A grid allocated while the shadow switch was off carries no shadow
  // (grandfathered all-defined). Its first re-arm after the switch came on
  // gives it one, so the resident grid is checked like a fresh one.
  simt::set_device_shadow_enabled(false);
  core::BinGrid grid(1, 1, 4);
  auto engine = checked_engine();
  read_first_slot(engine, grid);
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();

  grid.rearm(4);
  read_first_slot(engine, grid);
  EXPECT_EQ(engine.hazards().count(simt::HazardKind::kGlobalUninitRead), 1u)
      << engine.hazards().summary();
}

TEST(InitCheck, ReportIsDeterministicAcrossWorkerCounts) {
  // 8 blocks each read one never-written shared word; the merged report
  // (counts, records, rendered summary) must be bit-identical whether the
  // blocks ran serially or SM-sharded across 4 workers.
  const auto run = [&](int workers) {
    auto engine = checked_engine(workers);
    engine.launch(launch_shape("init_determinism", 8, 64),
                  [](simt::BlockCtx& ctx) {
                    auto buf = ctx.shared().alloc<std::uint32_t>(4);
                    ctx.par([&](simt::WarpExec& w) {
                      simt::LaneArray<std::uint32_t> idx{};
                      simt::LaneArray<std::uint32_t> vals{};
                      if (w.warp_in_block() == 0)
                        w.if_then([](int lane) { return lane == 0; }, [&] {
                          w.sh_gather(std::span<const std::uint32_t>(buf), idx,
                                      vals);
                        });
                    });
                  });
    return engine.hazards();
  };
  const auto serial = run(1);
  const auto sharded = run(4);
  EXPECT_EQ(serial.total, 8u);
  EXPECT_EQ(serial.count(simt::HazardKind::kSharedUninitRead), 8u);
  EXPECT_EQ(serial.total, sharded.total);
  ASSERT_EQ(serial.records.size(), sharded.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i)
    EXPECT_EQ(serial.records[i].block, sharded.records[i].block) << i;
  EXPECT_EQ(serial.summary(), sharded.summary());
}

// ---------------------------------------------------------------------------
// Leakcheck: allocation sites, generations, residency.
// ---------------------------------------------------------------------------

TEST(LeakCheck, DroppedAllocationReportedThenFreedClean) {
  const std::uint64_t generation = simt::begin_device_generation();
  auto leaked = [] {
    simt::DeviceAllocSite site("test.leaked_buffer");
    return std::make_unique<simt::DeviceVector<std::uint32_t>>(64, 1u);
  }();

  simt::HazardReport report;
  const std::uint64_t bytes = simt::device_leak_check(report, generation);
  EXPECT_EQ(bytes, 64 * sizeof(std::uint32_t));
  EXPECT_EQ(report.count(simt::HazardKind::kDeviceLeak), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].extent, 64 * sizeof(std::uint32_t));
  // Records carry the site tag, never an address, so reports compare
  // bit-identical across runs.
  EXPECT_NE(report.records[0].detail.find("test.leaked_buffer"),
            std::string::npos)
      << report.records[0].detail;
  EXPECT_EQ(report.records[0].address, 0u);

  leaked.reset();
  simt::HazardReport clean;
  EXPECT_EQ(simt::device_leak_check(clean, generation), 0u);
  EXPECT_EQ(clean.total, 0u);
}

TEST(LeakCheck, SitesReportInNameOrderWithCounts) {
  const std::uint64_t generation = simt::begin_device_generation();
  simt::DeviceVector<std::uint32_t> b;
  simt::DeviceVector<std::uint32_t> a1, a2;
  {
    simt::DeviceAllocSite site("test.site_b");
    b = simt::DeviceVector<std::uint32_t>(4, 0u);
  }
  {
    simt::DeviceAllocSite site("test.site_a");
    a1 = simt::DeviceVector<std::uint32_t>(4, 0u);
    a2 = simt::DeviceVector<std::uint32_t>(4, 0u);
  }
  simt::HazardReport report;
  simt::device_leak_check(report, generation);
  ASSERT_EQ(report.records.size(), 2u);  // one record per site, name order
  EXPECT_NE(report.records[0].detail.find("test.site_a: 2"),
            std::string::npos)
      << report.records[0].detail;
  EXPECT_NE(report.records[1].detail.find("test.site_b: 1"),
            std::string::npos)
      << report.records[1].detail;
}

TEST(LeakCheck, ResidentAndPriorGenerationAllocationsExempt) {
  // The device DB image is uploaded once and legitimately outlives every
  // query; DeviceResidentScope excludes it from scans. Allocations from
  // before the generation floor (another query's, the session's) are
  // invisible too — a query scan sees only its own allocations.
  simt::DeviceVector<std::uint32_t> prior(4, 0u);
  const std::uint64_t generation = simt::begin_device_generation();
  const auto before = simt::device_allocation_stats();
  std::optional<simt::DeviceVector<std::uint32_t>> resident_buf;
  {
    simt::DeviceResidentScope resident;
    simt::DeviceAllocSite site("test.resident_db");
    resident_buf.emplace(16, 3u);
  }
  const auto during = simt::device_allocation_stats();
  EXPECT_EQ(during.resident_allocations, before.resident_allocations + 1);
  EXPECT_EQ(during.resident_bytes,
            before.resident_bytes + 16 * sizeof(std::uint32_t));

  simt::HazardReport report;
  EXPECT_EQ(simt::device_leak_check(report, generation), 0u);
  EXPECT_EQ(report.total, 0u) << report.summary();
}

}  // namespace
}  // namespace repro
