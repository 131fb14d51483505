// Tests for the SIMT execution engine: occupancy rules, divergence
// accounting, memory coalescing, read-only cache, atomics, collectives,
// and the cost model.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simt/engine.hpp"

namespace repro {
namespace {

using simt::DeviceSpec;
using simt::LaneArray;
using simt::LaunchConfig;

// --- occupancy -------------------------------------------------------------

TEST(Occupancy, FullWithSmallFootprint) {
  DeviceSpec spec;
  const auto r = simt::compute_occupancy(spec, 256, 0, 16);
  EXPECT_EQ(r.blocks_per_sm, 8);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

TEST(Occupancy, SharedMemoryLimits) {
  DeviceSpec spec;  // 48 kB per SM
  const auto r = simt::compute_occupancy(spec, 256, 12 * 1024, 16);
  EXPECT_EQ(r.blocks_per_sm, 4);  // 48/12
  EXPECT_STREQ(r.limiter, "shared-memory");
  EXPECT_DOUBLE_EQ(r.occupancy, 4 * 256 / 2048.0);
}

TEST(Occupancy, RegisterLimits) {
  DeviceSpec spec;  // 64k regs per SM
  const auto r = simt::compute_occupancy(spec, 256, 0, 128);
  EXPECT_EQ(r.blocks_per_sm, 2);  // 65536 / (128*256)
  EXPECT_STREQ(r.limiter, "registers");
}

TEST(Occupancy, BlockSlotLimits) {
  DeviceSpec spec;  // 16 blocks per SM
  const auto r = simt::compute_occupancy(spec, 32, 0, 8);
  EXPECT_EQ(r.blocks_per_sm, 16);
  EXPECT_DOUBLE_EQ(r.occupancy, 16 * 32 / 2048.0);
}

TEST(Occupancy, OversizedSharedDoesNotFit) {
  DeviceSpec spec;
  const auto r = simt::compute_occupancy(spec, 256, 49 * 1024, 16);
  EXPECT_EQ(r.blocks_per_sm, 0);
}

// --- divergence ------------------------------------------------------------

TEST(Warp, ConvergedKernelHasZeroDivergence) {
  simt::Engine engine;
  LaunchConfig config{"converged", 1, 32, 16};
  std::vector<int> out(32);
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<int> vals{};
      w.vec([&](int lane) {
        idx[lane] = static_cast<std::uint32_t>(lane);
        vals[lane] = lane * 2;
      });
      w.scatter(out.data(), idx, vals);
    });
  });
  EXPECT_DOUBLE_EQ(stats.divergence_overhead(), 0.0);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i * 2);
}

TEST(Warp, HalfMaskedBranchCharges50Percent) {
  simt::Engine engine;
  LaunchConfig config{"halfmask", 1, 32, 16};
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      // 10 ops under a half mask; plus the ballot op at full width.
      for (int i = 0; i < 10; ++i)
        w.if_then([](int lane) { return lane < 16; }, [&] {
          w.vec([](int) {});
        });
    });
  });
  // 10 ballots at 32 active + 10 vec at 16 active = 20 ops, 480 lanes.
  EXPECT_NEAR(stats.divergence_overhead(), 1.0 - 480.0 / 640.0, 1e-12);
}

TEST(Warp, IfThenElseSerializesBothPaths) {
  simt::Engine engine;
  LaunchConfig config{"ifelse", 1, 32, 16};
  int then_count = 0, else_count = 0;
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.if_then_else([](int lane) { return lane % 2 == 0; },
                     [&] { w.vec([&](int) { ++then_count; }); },
                     [&] { w.vec([&](int) { ++else_count; }); });
    });
  });
  EXPECT_EQ(then_count, 16);
  EXPECT_EQ(else_count, 16);
}

TEST(Warp, LoopWhileChargesIdleLanes) {
  simt::Engine engine;
  LaunchConfig config{"loop", 1, 32, 16};
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<int> remaining{};
      w.vec([&](int lane) { remaining[lane] = lane == 0 ? 8 : 1; });
      w.loop_while([&](int lane) { return remaining[lane] > 0; },
                   [&] { w.vec([&](int lane) { --remaining[lane]; }); });
    });
  });
  // Lane 0 loops 8 times while the other 31 lanes finish after round 1:
  // substantial divergence must be visible.
  EXPECT_GT(stats.divergence_overhead(), 0.4);
}

// --- memory coalescing -----------------------------------------------------

TEST(Warp, ContiguousWordGatherIsFullyCoalesced) {
  simt::Engine engine;
  engine.set_readonly_cache_enabled(false);
  LaunchConfig config{"coalesced", 1, 32, 16};
  alignas(128) static std::uint32_t data[32];
  std::iota(data, data + 32, 0u);
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint32_t> out{};
      w.vec([&](int lane) { idx[lane] = static_cast<std::uint32_t>(lane); });
      w.gather(data, idx, out);
    });
  });
  // 32 lanes x 4 B = 128 B = four 32-byte sectors, all fully used.
  EXPECT_EQ(stats.ld_transactions, 4u);
  EXPECT_DOUBLE_EQ(stats.global_load_efficiency(), 1.0);
}

TEST(Warp, StridedGatherTouches32Sectors) {
  simt::Engine engine;
  engine.set_readonly_cache_enabled(false);
  LaunchConfig config{"strided", 1, 32, 16};
  static std::vector<std::uint32_t> data(32 * 64);
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint32_t> out{};
      w.vec([&](int lane) {
        idx[lane] = static_cast<std::uint32_t>(lane) * 64;  // 256 B stride
      });
      w.gather(data.data(), idx, out);
    });
  });
  EXPECT_EQ(stats.ld_transactions, 32u);  // one sector per lane
  EXPECT_NEAR(stats.global_load_efficiency(), 128.0 / (32 * 32.0), 1e-12);
}

TEST(Warp, ByteGatherContiguousIsFullyCoalesced) {
  // A warp loading 32 contiguous bytes touches exactly one 32-byte sector:
  // nvprof counts this as 100% load efficiency, and so do we.
  simt::Engine engine;
  engine.set_readonly_cache_enabled(false);
  LaunchConfig config{"bytes", 1, 32, 16};
  alignas(128) static std::uint8_t data[64];
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint8_t> out{};
      w.vec([&](int lane) { idx[lane] = static_cast<std::uint32_t>(lane); });
      w.gather(data, idx, out);
    });
  });
  EXPECT_EQ(stats.ld_transactions, 1u);
  EXPECT_DOUBLE_EQ(stats.global_load_efficiency(), 1.0);
}

TEST(Warp, GatherValuesCorrectUnderPartialMask) {
  simt::Engine engine;
  LaunchConfig config{"partial", 1, 32, 16};
  static std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 100);
  LaneArray<int> out{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      w.vec([&](int lane) { idx[lane] = static_cast<std::uint32_t>(lane); });
      w.if_then([](int lane) { return lane >= 8; },
                [&] { w.gather(data.data(), idx, out); });
    });
  });
  EXPECT_EQ(out[7], 0);    // masked lane untouched
  EXPECT_EQ(out[8], 108);  // active lane loaded
}

// --- read-only cache -------------------------------------------------------

TEST(RoCache, RepeatedGatherHitsInCache) {
  simt::Engine engine;
  LaunchConfig config{"rocache", 1, 32, 16};
  alignas(128) static std::uint32_t data[32];
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint32_t> out{};
      w.vec([&](int lane) { idx[lane] = static_cast<std::uint32_t>(lane); });
      for (int rep = 0; rep < 10; ++rep)
        w.gather(data, idx, out, simt::MemKind::kReadOnly);
    });
  });
  // 128 B of data = 4 sectors in one 128-byte cache line: the first sector
  // misses and fills the line, everything after hits.
  EXPECT_EQ(stats.rocache_misses, 1u);
  EXPECT_EQ(stats.rocache_hits, 39u);
  EXPECT_EQ(stats.ld_transactions, 1u);
}

TEST(RoCache, DisabledCacheCountsAllTransactions) {
  simt::Engine engine;
  engine.set_readonly_cache_enabled(false);
  LaunchConfig config{"nocache", 1, 32, 16};
  alignas(128) static std::uint32_t data[32];
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint32_t> out{};
      w.vec([&](int lane) { idx[lane] = static_cast<std::uint32_t>(lane); });
      for (int rep = 0; rep < 10; ++rep)
        w.gather(data, idx, out, simt::MemKind::kReadOnly);
    });
  });
  EXPECT_EQ(stats.ld_transactions, 40u);
  EXPECT_EQ(stats.rocache_hits, 0u);
}

TEST(RoCache, DirectMappedEviction) {
  simt::ReadOnlyCache cache(256, 128);  // 2 lines
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(256));  // maps to slot 0: evicts line 0
  EXPECT_FALSE(cache.access(0));    // line 0 was evicted
}

// --- atomics ---------------------------------------------------------------

TEST(Warp, AtomicAddSharedDeterministicOldValues) {
  simt::Engine engine;
  LaunchConfig config{"atomics", 1, 32, 16};
  LaneArray<std::uint32_t> old{};
  std::uint32_t final_value = 0;
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    auto counter = ctx.shared().alloc<std::uint32_t>(1);
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};  // all lanes hit slot 0
      LaneArray<std::uint32_t> ones{};
      w.vec([&](int lane) { ones[lane] = 1; });
      w.atomic_add_shared(counter, idx, ones, old);
    });
    final_value = counter[0];
  });
  EXPECT_EQ(final_value, 32u);
  for (std::uint32_t lane = 0; lane < 32; ++lane)
    EXPECT_EQ(old[lane], lane);  // lane-order commit
  EXPECT_EQ(stats.atomic_serial_passes, 31u);  // full collision
}

TEST(Warp, AtomicAddDistinctAddressesNoSerialization) {
  simt::Engine engine;
  LaunchConfig config{"atomics2", 1, 32, 16};
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    auto counters = ctx.shared().alloc<std::uint32_t>(32);
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint32_t> ones{};
      LaneArray<std::uint32_t> old{};
      w.vec([&](int lane) {
        idx[lane] = static_cast<std::uint32_t>(lane);
        ones[lane] = 1;
      });
      w.atomic_add_shared(counters, idx, ones, old);
    });
  });
  EXPECT_EQ(stats.atomic_serial_passes, 0u);
}

TEST(Warp, AtomicAddGlobal) {
  simt::Engine engine;
  LaunchConfig config{"gatomics", 4, 64, 16};
  static std::uint64_t counter[1];
  counter[0] = 0;
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint64_t> ones{};
      LaneArray<std::uint64_t> old{};
      w.vec([&](int lane) { ones[lane] = 1; });
      w.atomic_add_global(counter, idx, ones, old);
    });
  });
  EXPECT_EQ(counter[0], 4u * 2u * 32u);
}

// --- collectives -----------------------------------------------------------

TEST(Warp, WindowInclusiveScan) {
  simt::Engine engine;
  LaunchConfig config{"scan", 1, 32, 16};
  LaneArray<int> vals{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = 1; });
      w.window_inclusive_scan(vals, 8);
    });
  });
  for (int lane = 0; lane < 32; ++lane) EXPECT_EQ(vals[lane], lane % 8 + 1);
}

TEST(Warp, FullWarpScan) {
  simt::Engine engine;
  LaunchConfig config{"scan32", 1, 32, 16};
  LaneArray<int> vals{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = lane; });
      w.window_inclusive_scan(vals, 32);
    });
  });
  for (int lane = 0; lane < 32; ++lane)
    EXPECT_EQ(vals[lane], lane * (lane + 1) / 2);
}

TEST(Warp, WindowReduceMaxBroadcasts) {
  simt::Engine engine;
  LaunchConfig config{"redmax", 1, 32, 16};
  LaneArray<int> vals{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = (lane * 7) % 13; });
      w.window_reduce_max(vals, 8);
    });
  });
  for (int win = 0; win < 4; ++win) {
    int expected = 0;
    for (int l = win * 8; l < (win + 1) * 8; ++l)
      expected = std::max(expected, (l * 7) % 13);
    for (int l = win * 8; l < (win + 1) * 8; ++l)
      EXPECT_EQ(vals[l], expected) << "window " << win << " lane " << l;
  }
}

TEST(Warp, ShflUpShiftsWithinWindow) {
  simt::Engine engine;
  LaunchConfig config{"shfl", 1, 32, 16};
  LaneArray<int> vals{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = lane; });
      w.shfl_up(vals, 1, 8);
    });
  });
  for (int lane = 0; lane < 32; ++lane)
    EXPECT_EQ(vals[lane], lane % 8 == 0 ? lane : lane - 1);
}

TEST(Warp, ShflXorSwapsButterflyPartners) {
  simt::Engine engine;
  LaunchConfig config{"shfl_xor", 1, 32, 16};
  LaneArray<int> pairs{};
  LaneArray<int> mirrored{};
  LaneArray<int> windowed{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) {
        pairs[lane] = mirrored[lane] = windowed[lane] = lane;
      });
      w.shfl_xor(pairs, 1);
      w.shfl_xor(mirrored, 31);
      // Mask 8 at width 8: a source in a later window returns the lane's
      // own value, one in an earlier window is read (CUDA semantics).
      w.shfl_xor(windowed, 8, 8);
    });
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(pairs[lane], lane ^ 1);
    EXPECT_EQ(mirrored[lane], 31 - lane);
    EXPECT_EQ(windowed[lane], (lane & 8) != 0 ? lane - 8 : lane);
  }
  EXPECT_EQ(engine.profile().at("shfl_xor").vec_ops, 4u);
}

TEST(Warp, ShflReadsSourceLane) {
  simt::Engine engine;
  LaunchConfig config{"shfl_indexed", 1, 32, 16};
  LaneArray<int> reversed{};
  LaneArray<int> windowed{};
  LaneArray<int> broadcast{};
  engine.launch(config, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<int> src{};
      w.vec([&](int lane) {
        reversed[lane] = windowed[lane] = broadcast[lane] = lane * 10;
        src[lane] = 31 - lane;
      });
      w.shfl(reversed, src);
      // At width 8 the source is taken modulo 8 inside the lane's window.
      w.shfl(windowed, src, 8);
      w.shfl(broadcast, 3, 8);
    });
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(reversed[lane], (31 - lane) * 10);
    EXPECT_EQ(windowed[lane], (lane - lane % 8 + (31 - lane) % 8) * 10);
    EXPECT_EQ(broadcast[lane], (lane - lane % 8 + 3) * 10);
  }
  EXPECT_EQ(engine.profile().at("shfl_indexed").vec_ops, 4u);
}

// --- shared memory / launch validation -------------------------------------

TEST(SharedMemory, AllocationAndHighWater) {
  simt::SharedMemory shared(1024);
  auto a = shared.alloc<std::uint32_t>(64);  // 256 B
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(shared.used(), 256u);
  auto b = shared.alloc<std::uint64_t>(64);  // 512 B
  EXPECT_EQ(shared.used(), 768u);
  EXPECT_THROW((void)shared.alloc<std::uint8_t>(1000), std::length_error);
  shared.reset();
  EXPECT_EQ(shared.used(), 0u);
  EXPECT_EQ(shared.high_water(), 768u);
  (void)b;
}

TEST(Engine, RejectsBadLaunchShapes) {
  simt::Engine engine;
  EXPECT_THROW(
      engine.launch({"bad", 1, 33, 16}, [](simt::BlockCtx&) {}),
      std::invalid_argument);
  EXPECT_THROW(
      engine.launch({"bad", 0, 32, 16}, [](simt::BlockCtx&) {}),
      std::invalid_argument);
  EXPECT_THROW(
      engine.launch({"bad", 1, 2048, 16}, [](simt::BlockCtx&) {}),
      std::invalid_argument);
}

TEST(Engine, OccupancyReflectsSharedUsage) {
  simt::Engine engine;
  LaunchConfig config{"bigshared", 2, 128, 16};
  const auto stats = engine.launch(config, [&](simt::BlockCtx& ctx) {
    (void)ctx.shared().alloc<std::uint8_t>(24 * 1024);
    ctx.par([](simt::WarpExec&) {});
  });
  EXPECT_EQ(stats.shared_bytes, 24u * 1024u);
  // 48/24 = 2 blocks per SM at 128 threads = 256/2048 threads.
  EXPECT_DOUBLE_EQ(stats.occupancy, 256 / 2048.0);
}

TEST(Engine, CostModelChargesMemoryAndOccupancy) {
  simt::Engine low_occ, high_occ;
  static std::vector<std::uint32_t> data(1 << 16);
  auto kernel = [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<std::uint32_t> idx{};
      LaneArray<std::uint32_t> out{};
      for (int rep = 0; rep < 50; ++rep) {
        w.vec([&](int lane) {
          idx[lane] = static_cast<std::uint32_t>((lane * 997 + rep * 31) %
                                                 data.size());
        });
        w.gather(data.data(), idx, out);
      }
    });
  };
  auto bad = low_occ.launch({"lowocc", 4, 64, 250}, kernel);   // reg-bound
  auto good = high_occ.launch({"highocc", 4, 64, 16}, kernel);
  EXPECT_LT(bad.occupancy, good.occupancy);
  EXPECT_GT(bad.time_ms, good.time_ms);  // same work, worse latency hiding
}

TEST(Engine, TransferTimeLinearInBytes) {
  simt::Engine engine;
  const double t1 = engine.transfer("h2d", 1'000'000);
  const double t2 = engine.transfer("h2d", 2'000'000);
  EXPECT_NEAR(t2, 2 * t1, 1e-9);
  EXPECT_GT(t1, 0.0);
}

TEST(Engine, ProfileRegistryAggregates) {
  simt::Engine engine;
  for (int i = 0; i < 3; ++i) {
    engine.launch({"k", 1, 32, 16}, [](simt::BlockCtx& ctx) {
      ctx.par([](simt::WarpExec& w) { w.vec([](int) {}); });
    });
  }
  ASSERT_TRUE(engine.profile().has("k"));
  EXPECT_EQ(engine.profile().at("k").vec_ops, 3u);
  EXPECT_EQ(engine.profile().at("k").num_blocks, 3u);
}

}  // namespace
}  // namespace repro
