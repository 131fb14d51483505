// Tests for the simtcheck hazard analyzer itself: deliberately-buggy
// micro-kernels that must each trip the expected detector with the right
// kind/location fields, clean patterns that must stay silent (the
// false-positive budget is zero — the SimtCheckClean suite runs every
// production kernel under the checker), and determinism of the report
// across engine worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "simt/device_buffer.hpp"
#include "simt/engine.hpp"

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

TEST(SimtCheck, InterWarpSharedRaceDetected) {
  auto engine = checked_engine();
  // All four warps write shared word 0 in the same region: unordered
  // between barriers on hardware, hidden by serial warp execution here.
  engine.launch(launch_shape("shared_race"), [](simt::BlockCtx& ctx) {
    auto buf = ctx.shared().alloc<std::uint32_t>(32);
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<std::uint32_t> vals{};
      w.if_then([](int lane) { return lane == 0; },
                [&] { w.sh_scatter(buf, idx, vals); });
    });
  });

  const auto& report = engine.hazards();
  // Warps 1, 2, 3 each collide with the previous writer.
  EXPECT_EQ(report.total, 3u);
  EXPECT_EQ(report.count(simt::HazardKind::kSharedRace), 3u);
  EXPECT_EQ(report.by_kernel.at("shared_race"), 3u);
  ASSERT_EQ(report.records.size(), 3u);
  const auto& first = report.records[0];
  EXPECT_EQ(first.kind, simt::HazardKind::kSharedRace);
  EXPECT_EQ(first.kernel, "shared_race");
  EXPECT_EQ(first.block, 0);
  EXPECT_EQ(first.warp, 1);
  EXPECT_EQ(first.other_warp, 0);
  EXPECT_EQ(first.byte_offset, 0u);
  EXPECT_EQ(first.extent, sizeof(std::uint32_t));
  EXPECT_EQ(report.records[2].warp, 3);
  EXPECT_EQ(report.records[2].other_warp, 2);
}

TEST(SimtCheck, ReadOfSameEpochWriteIsARace) {
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_rw_race"), [](simt::BlockCtx& ctx) {
    auto buf = ctx.shared().alloc<std::uint32_t>(32);
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      idx[0] = 5;
      simt::LaneArray<std::uint32_t> vals{};
      w.if_then([](int lane) { return lane == 0; }, [&] {
        if (w.warp_in_block() == 0)
          w.sh_scatter(buf, idx, vals);
        else if (w.warp_in_block() == 1)
          w.sh_gather(std::span<const std::uint32_t>(buf), idx, vals);
      });
    });
  });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.count(simt::HazardKind::kSharedRace), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].warp, 1);
  EXPECT_EQ(report.records[0].other_warp, 0);
  EXPECT_EQ(report.records[0].byte_offset, 5 * sizeof(std::uint32_t));
}

TEST(SimtCheck, BarrierSeparatedAccessesAndAtomicsAreClean) {
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_clean"), [](simt::BlockCtx& ctx) {
    auto buf = ctx.shared().alloc<std::uint32_t>(32);
    // Region 1: warp 0 writes word 0.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<std::uint32_t> vals{};
      if (w.warp_in_block() == 0)
        w.if_then([](int lane) { return lane == 0; },
                  [&] { w.sh_scatter(buf, idx, vals); });
    });
    // Region 2 (after the implicit barrier): warp 1 reads it — ordered.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<std::uint32_t> vals{};
      if (w.warp_in_block() == 1)
        w.if_then([](int lane) { return lane == 0; }, [&] {
          w.sh_gather(std::span<const std::uint32_t>(buf), idx, vals);
        });
    });
    // Region 3: every warp atomically bumps the same counter — hardware
    // orders atomics, so this must stay silent.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<std::uint32_t> one{};
      simt::LaneArray<std::uint32_t> old{};
      one.fill(1);
      w.atomic_add_shared(buf, idx, one, old);
    });
  });
  EXPECT_EQ(engine.hazards().total, 0u);
}

TEST(SimtCheck, DivergentCollectiveDetected) {
  auto engine = checked_engine();
  engine.launch(launch_shape("divergent_max_scan", 1, 32),
                [](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<int> vals{};
                    // Lanes 0..2 of an 8-lane window active: the scan's
                    // shuffles read inactive peers — undefined on hardware.
                    w.if_then([](int lane) { return lane < 3; },
                              [&] { w.window_inclusive_max_scan(vals, 8); });
                  });
                });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kDivergentCollective), 1u);
  ASSERT_FALSE(report.records.empty());
  const auto& rec = report.records[0];
  EXPECT_EQ(rec.kernel, "divergent_max_scan");
  EXPECT_EQ(rec.block, 0);
  EXPECT_EQ(rec.warp, 0);
  EXPECT_EQ(rec.active_mask, 0x7u);
  EXPECT_EQ(rec.width, 8);
  EXPECT_EQ(rec.detail, "window_inclusive_max_scan");
  EXPECT_GT(report.collectives_checked, 0u);
}

TEST(SimtCheck, DivergentShflXorDetected) {
  auto engine = checked_engine();
  engine.launch(launch_shape("divergent_shfl_xor", 1, 32),
                [](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint64_t> keys{};
                    // Lane 2's butterfly partner (lane 3) is inactive.
                    w.if_then([](int lane) { return lane < 3; },
                              [&] { w.shfl_xor(keys, 1); });
                    // The full-warp butterfly the bitonic sort uses is clean.
                    w.shfl_xor(keys, 31);
                  });
                });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kDivergentCollective), 1u);
  ASSERT_FALSE(report.records.empty());
  const auto& rec = report.records[0];
  EXPECT_EQ(rec.kernel, "divergent_shfl_xor");
  EXPECT_EQ(rec.active_mask, 0x7u);
  EXPECT_EQ(rec.width, 32);
  EXPECT_EQ(rec.detail, "shfl_xor");
}

TEST(SimtCheck, DivergentShflDetected) {
  auto engine = checked_engine();
  engine.launch(launch_shape("divergent_shfl", 1, 32),
                [](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint64_t> keys{};
                    // Half of the first 8-lane window reads a window whose
                    // other lanes are inactive.
                    w.if_then([](int lane) { return lane < 4; },
                              [&] { w.shfl(keys, 7, 8); });
                    // Whole windows active: the window total broadcast of
                    // the window extension is clean.
                    w.if_then([](int lane) { return lane < 16; },
                              [&] { w.shfl(keys, 3, 8); });
                  });
                });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kDivergentCollective), 1u);
  ASSERT_FALSE(report.records.empty());
  const auto& rec = report.records[0];
  EXPECT_EQ(rec.kernel, "divergent_shfl");
  EXPECT_EQ(rec.active_mask, 0xfu);
  EXPECT_EQ(rec.width, 8);
  EXPECT_EQ(rec.detail, "shfl");
}

TEST(SimtCheck, WindowUniformMaskIsNotDivergent) {
  auto engine = checked_engine();
  // Whole windows inactive is the pattern the production kernels use
  // (warp.hpp's documented assumption): lanes 0..7 fully active, windows
  // 1..3 fully inactive — legal, must not be flagged.
  engine.launch(launch_shape("uniform_window", 1, 32),
                [](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<int> vals{};
                    w.if_then([](int lane) { return lane < 8; },
                              [&] { w.window_inclusive_max_scan(vals, 8); });
                  });
                });
  EXPECT_EQ(engine.hazards().total, 0u);
}

TEST(SimtCheck, DivergentScanUnderLoopDetected) {
  // The shape of the real hazard this analyzer caught in emit_records: a
  // width-32 scan issued inside a divergent if_then.
  auto engine = checked_engine();
  engine.launch(launch_shape("divergent_scan", 1, 32),
                [](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> rank{};
                    w.if_then([](int lane) { return lane % 3 == 0; },
                              [&] { w.window_inclusive_scan(rank, 32); });
                  });
                });
  EXPECT_EQ(engine.hazards().count(simt::HazardKind::kDivergentCollective),
            1u);
}

TEST(SimtCheck, SharedOutOfBoundsDetected) {
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_oob", 1, 32), [](simt::BlockCtx& ctx) {
    auto buf = ctx.shared().alloc<std::uint32_t>(8);
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      idx[0] = 8;  // one past the span
      simt::LaneArray<std::uint32_t> vals{};
      w.if_then([](int lane) { return lane == 0; },
                [&] { w.sh_scatter(buf, idx, vals); });
    });
  });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kSharedOutOfBounds), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].byte_offset, 8 * sizeof(std::uint32_t));
  EXPECT_EQ(report.records[0].extent, sizeof(std::uint32_t));
  EXPECT_EQ(report.records[0].warp, 0);
}

TEST(SimtCheck, UseAfterResetDetected) {
  auto engine = checked_engine();
  engine.launch(launch_shape("shared_uar", 1, 32), [](simt::BlockCtx& ctx) {
    auto stale = ctx.shared().alloc<std::uint32_t>(8);
    ctx.shared().reset();
    auto fresh = ctx.shared().alloc<std::uint32_t>(1);
    (void)fresh;
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      idx[0] = 2;  // bytes 8..12: beyond the re-allocated prefix
      simt::LaneArray<std::uint32_t> vals{};
      w.if_then([](int lane) { return lane == 0; }, [&] {
        w.sh_gather(std::span<const std::uint32_t>(stale), idx, vals);
      });
    });
  });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.count(simt::HazardKind::kSharedUseAfterReset), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].byte_offset, 2 * sizeof(std::uint32_t));
}

TEST(SimtCheck, CrossBlockPlainStoreRaceDetected) {
  auto engine = checked_engine();
  simt::DeviceVector<std::uint32_t> buf(32, 0);
  engine.launch(launch_shape("global_race", 2, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; },
                              [&] { w.scatter(buf.data(), idx, vals); });
                  });
                });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kGlobalRace), 1u);
  ASSERT_FALSE(report.records.empty());
  const auto& rec = report.records[0];
  EXPECT_EQ(rec.kernel, "global_race");
  EXPECT_EQ(rec.other_block, 0);
  EXPECT_EQ(rec.block, 1);
  EXPECT_EQ(rec.address, reinterpret_cast<std::uintptr_t>(buf.data()));
  EXPECT_EQ(rec.extent, sizeof(std::uint32_t));  // coalesced to one record
}

TEST(SimtCheck, CrossBlockAtomicsAndDisjointStoresAreClean) {
  auto engine = checked_engine();
  simt::DeviceVector<std::uint32_t> counter(1, 0);
  simt::DeviceVector<std::uint32_t> per_block(4, 0);
  engine.launch(launch_shape("global_clean", 4, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> zero{};
                    simt::LaneArray<std::uint32_t> one{};
                    simt::LaneArray<std::uint32_t> old{};
                    one.fill(1);
                    w.if_then([](int lane) { return lane == 0; }, [&] {
                      // Same word from every block, but atomically.
                      w.atomic_add_global(counter.data(), zero, one, old);
                      // Plain stores to per-block disjoint words: adjacent
                      // in one 8-byte granule, still no hazard.
                      simt::LaneArray<std::uint32_t> idx{};
                      idx[0] = static_cast<std::uint32_t>(ctx.block_id());
                      w.scatter(per_block.data(), idx, one);
                    });
                  });
                });
  EXPECT_EQ(engine.hazards().total, 0u);
}

TEST(SimtCheck, GlobalOutOfBoundsDetected) {
  auto engine = checked_engine();
  simt::DeviceVector<std::uint32_t> buf(4, 0);
  engine.launch(launch_shape("global_oob", 1, 32), [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      idx[0] = 4;  // one element past the registered extent
      simt::LaneArray<std::uint32_t> vals{};
      w.if_then([](int lane) { return lane == 0; },
                [&] { w.gather(buf.data(), idx, vals); });
    });
  });
  const auto& report = engine.hazards();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kGlobalOutOfBounds), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].address,
            reinterpret_cast<std::uintptr_t>(buf.data() + 4));
}

TEST(SimtCheck, DivergentBarrierDetected) {
  // The structured par()/if_then API always restores the mask before the
  // implicit barrier, so this detector is exercised unit-level: a warp
  // arriving at the region barrier with a narrowed mask must be flagged.
  simt::LaunchChecker checker("unit_barrier", 1);
  checker.block(0).begin_region();
  checker.block(0).on_barrier(0, 0xffffffffu);  // converged: silent
  checker.block(0).on_barrier(2, 0x0000ffffu);  // divergent: flagged
  simt::HazardReport report;
  EXPECT_EQ(checker.finalize(report), 1u);
  EXPECT_EQ(report.count(simt::HazardKind::kDivergentBarrier), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records[0].warp, 2);
  EXPECT_EQ(report.records[0].active_mask, 0x0000ffffu);
  EXPECT_EQ(report.records[0].kernel, "unit_barrier");
}

TEST(SimtCheck, ReportIsDeterministicAcrossWorkerCounts) {
  simt::DeviceVector<std::uint32_t> buf(8, 0);
  const auto run = [&](int workers) {
    auto engine = checked_engine(workers);
    // 8 blocks, each with an internal 4-warp shared race (3 hazards), and
    // pairs of blocks (b, b+4) colliding on global word b % 4 (4 hazards).
    engine.launch(launch_shape("determinism", 8, 128),
                  [&](simt::BlockCtx& ctx) {
                    auto sh = ctx.shared().alloc<std::uint32_t>(4);
                    ctx.par([&](simt::WarpExec& w) {
                      simt::LaneArray<std::uint32_t> idx{};
                      simt::LaneArray<std::uint32_t> vals{};
                      w.if_then([](int lane) { return lane == 0; }, [&] {
                        w.sh_scatter(sh, idx, vals);
                        simt::LaneArray<std::uint32_t> gidx{};
                        gidx[0] =
                            static_cast<std::uint32_t>(ctx.block_id() % 4);
                        if (w.warp_in_block() == 0)
                          w.scatter(buf.data(), gidx, vals);
                      });
                    });
                  });
    return engine.hazards();
  };

  const auto serial = run(1);
  const auto sharded = run(4);
  EXPECT_EQ(serial.total, 8u * 3u + 4u);
  EXPECT_EQ(serial.total, sharded.total);
  EXPECT_EQ(serial.by_kind, sharded.by_kind);
  EXPECT_EQ(serial.by_kernel, sharded.by_kernel);
  ASSERT_EQ(serial.records.size(), sharded.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const auto& a = serial.records[i];
    const auto& b = sharded.records[i];
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.block, b.block) << "record " << i;
    EXPECT_EQ(a.warp, b.warp) << "record " << i;
    EXPECT_EQ(a.other_warp, b.other_warp) << "record " << i;
    EXPECT_EQ(a.other_block, b.other_block) << "record " << i;
    EXPECT_EQ(a.byte_offset, b.byte_offset) << "record " << i;
    EXPECT_EQ(a.address, b.address) << "record " << i;
    EXPECT_EQ(a.extent, b.extent) << "record " << i;
  }
}

TEST(SimtCheck, EnvironmentToggleEnablesChecker) {
  ::setenv("REPRO_SIMTCHECK", "1", 1);
  simt::Engine enabled;
  ::unsetenv("REPRO_SIMTCHECK");
  simt::Engine disabled;
  EXPECT_TRUE(enabled.simtcheck_enabled());
  EXPECT_FALSE(disabled.simtcheck_enabled());
}

TEST(SimtCheck, SummaryMentionsKindsAndKernels) {
  auto engine = checked_engine();
  simt::DeviceVector<std::uint32_t> buf(4, 0);
  engine.launch(launch_shape("summary_kernel", 1, 32),
                [&](simt::BlockCtx& ctx) {
                  ctx.par([&](simt::WarpExec& w) {
                    simt::LaneArray<std::uint32_t> idx{};
                    idx[0] = 4;
                    simt::LaneArray<std::uint32_t> vals{};
                    w.if_then([](int lane) { return lane == 0; },
                              [&] { w.gather(buf.data(), idx, vals); });
                  });
                });
  const std::string text = engine.hazards().summary();
  EXPECT_NE(text.find("global-oob"), std::string::npos);
  EXPECT_NE(text.find("summary_kernel"), std::string::npos);
  EXPECT_NE(simt::HazardReport{}.summary().find("0 hazards"),
            std::string::npos);
}

}  // namespace
}  // namespace repro
