#include "gpualgo/scan.hpp"

#include <algorithm>

#include "simt/simtcheck.hpp"

namespace repro::gpualgo {

namespace {

constexpr int kBlockThreads = 128;
constexpr int kWarpsPerBlock = kBlockThreads / simt::kWarpSize;

simt::LaunchConfig tile_launch(const std::string& kernel_name, int tiles) {
  simt::LaunchConfig config;
  config.name = kernel_name;
  config.grid_blocks = tiles;
  config.block_threads = kBlockThreads;
  config.regs_per_thread = 16;
  return config;
}

/// Region 1 of both passes: a warp loads its 32 elements of the block's
/// tile (zero past the end) into `own` and inclusive-scans them into
/// `vals`; lane 31 stashes the warp total in warp_sums.
template <class T>
void scan_warp(simt::WarpExec& w, std::span<const T> input,
               std::uint32_t tile_base, std::span<T> warp_sums,
               simt::LaneArray<std::uint32_t>& idx, simt::LaneArray<T>& own,
               simt::LaneArray<T>& vals) {
  const auto n = static_cast<std::uint32_t>(input.size());
  w.vec([&](int lane) {
    idx[static_cast<std::size_t>(lane)] =
        tile_base + static_cast<std::uint32_t>(
                        w.warp_in_block() * simt::kWarpSize + lane);
  });
  w.if_then(
      [&](int lane) { return idx[static_cast<std::size_t>(lane)] < n; },
      [&] { w.gather(input.data(), idx, vals); });
  own = vals;
  w.window_inclusive_scan(vals, simt::kWarpSize);
  w.if_then([&](int lane) { return lane == simt::kWarpSize - 1; }, [&] {
    simt::LaneArray<std::uint32_t> widx{};
    w.vec([&](int lane) {
      widx[static_cast<std::size_t>(lane)] =
          static_cast<std::uint32_t>(w.warp_in_block());
    });
    w.sh_scatter<T, std::uint32_t>(warp_sums, widx, vals);
  });
}

/// Region 2 of both passes: warp 0 inclusive-scans the warp totals, so
/// lane i of `sums` holds warps 0..i and lane kWarpsPerBlock - 1 the tile.
template <class T>
void scan_warp_totals(simt::WarpExec& w, std::span<T> warp_sums,
                      simt::LaneArray<std::uint32_t>& idx,
                      simt::LaneArray<T>& sums) {
  w.vec([&](int lane) {
    idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
        lane < kWarpsPerBlock ? lane : kWarpsPerBlock - 1);
  });
  w.sh_gather<T, std::uint32_t>(warp_sums, idx, sums);
  w.window_inclusive_scan(sums, kWarpsPerBlock);
}

/// The first pass of reduce-then-scan: block t writes the total of tile t
/// to tile_sums[t].
template <class T>
void reduce_tiles(simt::Engine& engine, std::span<const T> input,
                  std::span<T> tile_sums, const std::string& kernel_name) {
  const auto tiles = static_cast<int>(tile_sums.size());
  engine.launch(tile_launch(kernel_name, tiles), [&](simt::BlockCtx& ctx) {
    auto warp_sums = ctx.shared().alloc<T>(kWarpsPerBlock);
    const auto tile = static_cast<std::uint32_t>(ctx.block_id());
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<T> own{};
      simt::LaneArray<T> vals{};
      scan_warp(w, input, tile * kBlockThreads, warp_sums, idx, own, vals);
    });
    ctx.par([&](simt::WarpExec& w) {
      if (w.warp_in_block() != 0) return;
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<T> sums{};
      scan_warp_totals(w, warp_sums, idx, sums);
      w.if_then([](int lane) { return lane == kWarpsPerBlock - 1; }, [&] {
        w.vec([&](int lane) { idx[static_cast<std::size_t>(lane)] = tile; });
        w.scatter(tile_sums.data(), idx, sums);
      });
    });
  });
}

/// Scans tiles of kBlockThreads elements, one per block (warp scans, then
/// a scan of the warp totals through shared memory), and writes each
/// element's exclusive prefix to `output`, reading the input once. With
/// `tile_offsets` (the scanned totals of reduce_tiles) each tile adds its
/// own offset; without, the input is one tile. The last tile also writes
/// the total to output[n].
template <class T>
void scan_tiles(simt::Engine& engine, std::span<const T> input,
                std::span<T> output, const T* tile_offsets,
                const std::string& kernel_name) {
  const auto n = static_cast<std::uint32_t>(input.size());
  const int tiles =
      std::max(1, static_cast<int>((n + kBlockThreads - 1) / kBlockThreads));

  engine.launch(tile_launch(kernel_name, tiles), [&](simt::BlockCtx& ctx) {
    auto warp_sums = ctx.shared().alloc<T>(kWarpsPerBlock);
    auto tile_vals = ctx.shared().alloc<T>(kBlockThreads);
    const auto tile = static_cast<std::uint32_t>(ctx.block_id());
    const std::uint32_t tile_base = tile * kBlockThreads;

    // Region 1: each warp scans its 32 elements and stashes each one's
    // exclusive prefix within the warp.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<T> own{};
      simt::LaneArray<T> vals{};
      scan_warp(w, input, tile_base, warp_sums, idx, own, vals);
      simt::LaneArray<T> exclusive{};
      w.vec([&](int lane) {
        const auto l = static_cast<std::size_t>(lane);
        idx[l] -= tile_base;
        exclusive[l] = vals[l] - own[l];
      });
      w.sh_scatter<T, std::uint32_t>(tile_vals, idx, exclusive);
    });

    // Region 2: warp 0 scans the warp totals for region 3. The last tile's
    // total plus its offset is the grand total.
    ctx.par([&](simt::WarpExec& w) {
      if (w.warp_in_block() != 0) return;
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<T> sums{};
      scan_warp_totals(w, warp_sums, idx, sums);
      w.if_then([&](int lane) { return lane < kWarpsPerBlock; }, [&] {
        w.sh_scatter<T, std::uint32_t>(warp_sums, idx, sums);
      });
      if (ctx.block_id() != tiles - 1) return;
      w.if_then([](int lane) { return lane == kWarpsPerBlock - 1; }, [&] {
        simt::LaneArray<T> offset{};
        w.vec([&](int lane) { idx[static_cast<std::size_t>(lane)] = tile; });
        if (tile_offsets != nullptr) w.gather(tile_offsets, idx, offset);
        w.vec([&](int lane) {
          const auto l = static_cast<std::size_t>(lane);
          sums[l] += offset[l];
          idx[l] = n;
        });
        w.scatter(output.data(), idx, sums);
      });
    });

    // Region 3: add the warp and tile offsets and write out.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> local{};
      simt::LaneArray<std::uint32_t> gidx{};
      simt::LaneArray<std::uint32_t> tidx{};
      simt::LaneArray<T> vals{};
      w.vec([&](int lane) {
        const auto l = static_cast<std::size_t>(lane);
        local[l] = static_cast<std::uint32_t>(
            w.warp_in_block() * simt::kWarpSize + lane);
        gidx[l] = tile_base + local[l];
        tidx[l] = tile;
      });
      w.sh_gather<T, std::uint32_t>(tile_vals, local, vals);
      // Warp offset = inclusive sum of preceding warps.
      simt::LaneArray<T> warp_off{};
      if (w.warp_in_block() > 0) {
        simt::LaneArray<std::uint32_t> widx{};
        w.vec([&](int lane) {
          widx[static_cast<std::size_t>(lane)] =
              static_cast<std::uint32_t>(w.warp_in_block() - 1);
        });
        w.sh_gather<T, std::uint32_t>(warp_sums, widx, warp_off);
      }
      // Tile offset: lane 0 loads it, a shuffle hands it to the warp.
      simt::LaneArray<T> tile_off{};
      if (tile_offsets != nullptr) {
        w.if_then([](int lane) { return lane == 0; },
                  [&] { w.gather(tile_offsets, tidx, tile_off); });
        w.shfl(tile_off, 0);
      }
      w.vec([&](int lane) {
        const auto l = static_cast<std::size_t>(lane);
        vals[l] += warp_off[l] + tile_off[l];
      });
      w.if_then(
          [&](int lane) { return gidx[static_cast<std::size_t>(lane)] < n; },
          [&] { w.scatter(output.data(), gidx, vals); });
    });
  });
}

template <class T>
simt::DeviceVector<T> scan_device(simt::Engine& engine,
                                  std::span<const T> input,
                                  const std::string& kernel_name) {
  // Kernel-visible buffers must be device allocations: device-code access
  // to a plain host vector is what simtcheck's memcheck flags (an invalid
  // pointer on real hardware). Inputs already inside a device buffer pass
  // through untouched — keeping whatever (mis)alignment the caller chose —
  // and anything else is staged, modeling the implicit H2D copy.
  std::span<const T> in = input;
  simt::DeviceVector<T> staged;
  if (!simt::is_device_address(input.data(), input.size_bytes())) {
    staged.assign(input.begin(), input.end());
    in = {staged.data(), staged.size()};
  }
  // Left unfilled: the launches write every value.
  simt::DeviceVector<T> out(input.size() + 1);
  const std::size_t num_tiles =
      (input.size() + kBlockThreads - 1) / kBlockThreads;
  if (num_tiles <= 1) {
    scan_tiles<T>(engine, in, {out.data(), out.size()}, nullptr, kernel_name);
    return out;
  }

  // Reduce-then-scan: tile totals, their scan (recursively, on the
  // device), then each tile scans with its offset.
  simt::DeviceVector<T> tile_sums(num_tiles);
  reduce_tiles<T>(engine, in, {tile_sums.data(), tile_sums.size()},
                  kernel_name);
  const simt::DeviceVector<T> tile_offsets = scan_device<T>(
      engine, {tile_sums.data(), tile_sums.size()}, kernel_name);
  scan_tiles<T>(engine, in, {out.data(), out.size()}, tile_offsets.data(),
                kernel_name);
  return out;
}

}  // namespace

simt::DeviceVector<std::uint32_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint32_t> input,
    const std::string& kernel_name) {
  return scan_device(engine, input, kernel_name);
}

simt::DeviceVector<std::uint64_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint64_t> input,
    const std::string& kernel_name) {
  return scan_device(engine, input, kernel_name);
}

}  // namespace repro::gpualgo
