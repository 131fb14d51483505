// Additional SIMT primitive tests: the max-scan used by the window-based
// extension, masked collective behaviour, and device-buffer alignment.
#include <gtest/gtest.h>

#include <stdexcept>

#include "simt/device_buffer.hpp"
#include "simt/engine.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using simt::LaneArray;
using simt::LaunchConfig;

TEST(Collectives, WindowInclusiveMaxScan) {
  simt::Engine engine;
  LaneArray<int> vals{};
  engine.launch({"maxscan", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = (lane * 13) % 17 - 8; });
      w.window_inclusive_max_scan(vals, 8);
    });
  });
  for (int lane = 0; lane < 32; ++lane) {
    int expected = INT_MIN;
    for (int k = lane - lane % 8; k <= lane; ++k)
      expected = std::max(expected, (k * 13) % 17 - 8);
    EXPECT_EQ(vals[lane], expected) << "lane " << lane;
  }
}

TEST(Collectives, MaxScanRandomSweep) {
  util::Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    for (const int width : {2, 4, 8, 16, 32}) {
      simt::Engine engine;
      LaneArray<int> vals{};
      LaneArray<int> input{};
      for (auto& v : input) v = static_cast<int>(rng.below(100)) - 50;
      engine.launch({"maxscan2", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
        ctx.par([&](simt::WarpExec& w) {
          w.vec([&](int lane) { vals[lane] = input[lane]; });
          w.window_inclusive_max_scan(vals, width);
        });
      });
      for (int lane = 0; lane < 32; ++lane) {
        int expected = INT_MIN;
        for (int k = lane - lane % width; k <= lane; ++k)
          expected = std::max(expected, input[k]);
        ASSERT_EQ(vals[lane], expected)
            << "width " << width << " lane " << lane;
      }
    }
  }
}

TEST(Collectives, ScanUnderNarrowedMaskOnlyTouchesActiveWindows) {
  // Windows whose lanes are inactive must keep their values: the window
  // extension relies on this when some windows finished their segments.
  simt::Engine engine;
  LaneArray<int> vals{};
  engine.launch({"maskedscan", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = 1; });
      w.if_then([](int lane) { return lane < 16; },  // windows 0 and 1 only
                [&] { w.window_inclusive_scan(vals, 8); });
    });
  });
  for (int lane = 0; lane < 16; ++lane) EXPECT_EQ(vals[lane], lane % 8 + 1);
  for (int lane = 16; lane < 32; ++lane) EXPECT_EQ(vals[lane], 1);
}

TEST(Collectives, MaxScanUnderNarrowedMaskOnlyTouchesActiveWindows) {
  // Narrow to windows 0 and 1 via if_then: the max-scan must behave as the
  // full-mask scan inside the active windows and leave the rest untouched.
  simt::Engine engine;
  LaneArray<int> vals{};
  LaneArray<int> input{};
  for (int lane = 0; lane < 32; ++lane) input[lane] = (lane * 29) % 23 - 11;
  engine.launch({"maskedmaxscan", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.vec([&](int lane) { vals[lane] = input[lane]; });
      w.if_then([](int lane) { return lane < 16; },  // windows 0 and 1 only
                [&] { w.window_inclusive_max_scan(vals, 8); });
    });
  });
  for (int lane = 0; lane < 16; ++lane) {
    int expected = INT_MIN;
    for (int k = lane - lane % 8; k <= lane; ++k)
      expected = std::max(expected, input[k]);
    EXPECT_EQ(vals[lane], expected) << "lane " << lane;
  }
  for (int lane = 16; lane < 32; ++lane)
    EXPECT_EQ(vals[lane], input[lane]) << "inactive lane " << lane;
}

TEST(Collectives, WindowedCollectivesRejectNonPowerOfTwoWidths) {
  simt::Engine engine;
  engine.launch({"bad_widths", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<int> vals{};
      for (const int width : {3, 48}) {
        EXPECT_THROW(w.window_inclusive_scan(vals, width),
                     std::invalid_argument)
            << width;
        EXPECT_THROW(w.window_inclusive_max_scan(vals, width),
                     std::invalid_argument)
            << width;
        EXPECT_THROW(w.shfl_up(vals, 1, width), std::invalid_argument)
            << width;
        EXPECT_THROW(w.shfl(vals, 0, width), std::invalid_argument) << width;
        EXPECT_THROW(w.shfl_xor(vals, 1, width), std::invalid_argument)
            << width;
      }
    });
  });
}

TEST(Collectives, ShflSourceWrapsModuloWidth) {
  // As __shfl_sync: the source lane is taken modulo the width, so -1 reads
  // the window's last lane and 33 its lane 1, never another window's.
  for (const int width : {8, 32}) {
    for (const int src : {-1, 33}) {
      simt::Engine engine;
      LaneArray<int> vals{};
      engine.launch({"shfl_wrap", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
        ctx.par([&](simt::WarpExec& w) {
          w.vec([&](int lane) { vals[lane] = 100 + lane; });
          w.shfl(vals, src, width);
        });
      });
      const int offset = src == -1 ? width - 1 : 1;
      for (int lane = 0; lane < 32; ++lane)
        EXPECT_EQ(vals[lane], 100 + lane / width * width + offset)
            << "width " << width << " src " << src << " lane " << lane;
    }
  }
}

TEST(Collectives, NestedLoopsRestoreMasks) {
  simt::Engine engine;
  int executions = 0;
  engine.launch({"nested", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      LaneArray<int> outer{};
      w.vec([&](int lane) { outer[lane] = lane % 3; });
      w.loop_while([&](int lane) { return outer[lane] > 0; }, [&] {
        LaneArray<int> inner{};
        w.vec([&](int lane) { inner[lane] = 2; });
        w.loop_while([&](int lane) { return inner[lane] > 0; },
                     [&] { w.vec([&](int lane) { --inner[lane]; }); });
        w.vec([&](int lane) {
          --outer[lane];
          ++executions;
        });
      });
      // After both loops the full mask must be restored.
      EXPECT_EQ(w.active_lanes(), 32);
    });
  });
  // Lanes with outer=1: 1 outer iteration; outer=2: 2. 11 lanes of
  // residue 1, 10 of residue 2 (lanes 0..31 mod 3).
  EXPECT_EQ(executions, 11 * 1 + 10 * 2);
}

TEST(DeviceVector, Is128ByteAligned) {
  for (const std::size_t n : {1u, 31u, 1000u}) {
    simt::DeviceVector<std::uint32_t> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 128, 0u)
        << "size " << n;
  }
  simt::DeviceVector<std::uint64_t> w(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 128, 0u);
}

TEST(Collectives, BallotRespectsMask) {
  simt::Engine engine;
  simt::Mask observed = 0;
  engine.launch({"ballot", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
    ctx.par([&](simt::WarpExec& w) {
      w.if_then([](int lane) { return lane >= 8 && lane < 24; }, [&] {
        observed = w.ballot([](int lane) { return lane % 2 == 0; });
      });
    });
  });
  // Only active even lanes in [8, 24) may vote.
  EXPECT_EQ(observed, 0x00555500u & 0x00ffff00u);
}

TEST(SharedConflicts, SameBankChargesPasses) {
  simt::Engine engine;
  const auto stats = engine.launch(
      {"conflicts", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
        auto region = ctx.shared().alloc<std::uint32_t>(32 * 32);
        ctx.par([&](simt::WarpExec& w) {
          LaneArray<std::uint32_t> idx{};
          LaneArray<std::uint32_t> out{};
          // All lanes read bank 0 (stride 32 words).
          w.vec([&](int lane) {
            idx[lane] = static_cast<std::uint32_t>(lane) * 32;
          });
          w.sh_gather<std::uint32_t, std::uint32_t>(region, idx, out);
        });
      });
  EXPECT_EQ(stats.shared_conflict_passes, 31u);
}

TEST(SharedConflicts, ConflictFreeAccess) {
  simt::Engine engine;
  const auto stats = engine.launch(
      {"noconflict", 1, 32, 16}, [&](simt::BlockCtx& ctx) {
        auto region = ctx.shared().alloc<std::uint32_t>(64);
        ctx.par([&](simt::WarpExec& w) {
          LaneArray<std::uint32_t> idx{};
          LaneArray<std::uint32_t> out{};
          w.vec([&](int lane) {
            idx[lane] = static_cast<std::uint32_t>(lane);
          });
          w.sh_gather<std::uint32_t, std::uint32_t>(region, idx, out);
        });
      });
  EXPECT_EQ(stats.shared_conflict_passes, 0u);
}

}  // namespace
}  // namespace repro
