#include "gpualgo/scan.hpp"

#include <algorithm>

#include "simt/device_buffer.hpp"

namespace repro::gpualgo {

namespace {

constexpr int kBlockThreads = 128;
constexpr int kWarpsPerBlock = kBlockThreads / simt::kWarpSize;

/// One scan level: tiles of kBlockThreads elements are scanned per block
/// (warp scan + cross-warp combine through shared memory); per-tile totals
/// land in `tile_sums`.
template <class T>
void scan_tiles(simt::Engine& engine, std::span<const T> input,
                std::span<T> output, std::span<T> tile_sums,
                const std::string& kernel_name) {
  const auto n = static_cast<std::uint32_t>(input.size());
  const int num_tiles = static_cast<int>(tile_sums.size());

  simt::LaunchConfig config;
  config.name = kernel_name;
  config.grid_blocks = num_tiles;
  config.block_threads = kBlockThreads;
  config.regs_per_thread = 16;

  engine.launch(config, [&](simt::BlockCtx& ctx) {
    auto warp_sums = ctx.shared().alloc<T>(kWarpsPerBlock);
    auto tile_vals = ctx.shared().alloc<T>(kBlockThreads);
    const auto tile_base = static_cast<std::uint32_t>(ctx.block_id()) *
                           kBlockThreads;

    // Region 1: each warp loads and inclusive-scans its 32 elements.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<T> vals{};
      w.vec([&](int lane) {
        idx[static_cast<std::size_t>(lane)] =
            tile_base +
            static_cast<std::uint32_t>(w.warp_in_block() * simt::kWarpSize +
                                       lane);
      });
      w.if_then(
          [&](int lane) { return idx[static_cast<std::size_t>(lane)] < n; },
          [&] { w.gather(input.data(), idx, vals); });
      w.vec([&](int lane) {
        if (idx[static_cast<std::size_t>(lane)] >= n)
          vals[static_cast<std::size_t>(lane)] = 0;
      });
      w.window_inclusive_scan(vals, simt::kWarpSize);
      // Stash the scanned values and the warp total.
      simt::LaneArray<std::uint32_t> local{};
      w.vec([&](int lane) {
        local[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
            w.warp_in_block() * simt::kWarpSize + lane);
      });
      w.sh_scatter<T, std::uint32_t>(tile_vals, local, vals);
      w.if_then([&](int lane) { return lane == simt::kWarpSize - 1; }, [&] {
        simt::LaneArray<std::uint32_t> widx{};
        simt::LaneArray<T> wval{};
        w.vec([&](int lane) {
          widx[static_cast<std::size_t>(lane)] =
              static_cast<std::uint32_t>(w.warp_in_block());
          wval[static_cast<std::size_t>(lane)] =
              vals[static_cast<std::size_t>(lane)];
        });
        w.sh_scatter<T, std::uint32_t>(warp_sums, widx, wval);
      });
    });

    // Region 2: warp 0 scans the per-warp totals (exclusive).
    ctx.par([&](simt::WarpExec& w) {
      if (w.warp_in_block() != 0) return;
      simt::LaneArray<std::uint32_t> idx{};
      simt::LaneArray<T> sums{};
      w.vec([&](int lane) {
        idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
            lane < kWarpsPerBlock ? lane : kWarpsPerBlock - 1);
      });
      w.sh_gather<T, std::uint32_t>(warp_sums, idx, sums);
      w.vec([&](int lane) {
        if (lane >= kWarpsPerBlock) sums[static_cast<std::size_t>(lane)] = 0;
      });
      w.window_inclusive_scan(sums, simt::kWarpSize);
      w.if_then([&](int lane) { return lane < kWarpsPerBlock; }, [&] {
        w.sh_scatter<T, std::uint32_t>(warp_sums, idx, sums);
      });
    });

    // Region 3: convert to exclusive, add warp offsets, write out, and the
    // last thread records the tile total.
    ctx.par([&](simt::WarpExec& w) {
      simt::LaneArray<std::uint32_t> local{};
      simt::LaneArray<T> vals{};
      simt::LaneArray<T> orig{};
      simt::LaneArray<std::uint32_t> gidx{};
      w.vec([&](int lane) {
        local[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
            w.warp_in_block() * simt::kWarpSize + lane);
        gidx[static_cast<std::size_t>(lane)] =
            tile_base + local[static_cast<std::size_t>(lane)];
      });
      w.sh_gather<T, std::uint32_t>(tile_vals, local, vals);
      w.if_then(
          [&](int lane) { return gidx[static_cast<std::size_t>(lane)] < n; },
          [&] { w.gather(input.data(), gidx, orig); });
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
      w.vec([&](int lane) {
        const auto l = static_cast<std::size_t>(lane);
        // exclusive = inclusive - original element
        vals[l] = vals[l] - (gidx[l] < n ? orig[l] : 0) + warp_off[l];
      });
      w.if_then(
          [&](int lane) { return gidx[static_cast<std::size_t>(lane)] < n; },
          [&] { w.scatter(output.data(), gidx, vals); });
      // Tile total: last warp, last lane.
      if (w.warp_in_block() == kWarpsPerBlock - 1) {
        w.if_then([&](int lane) { return lane == simt::kWarpSize - 1; }, [&] {
          simt::LaneArray<std::uint32_t> tidx{};
          simt::LaneArray<T> total{};
          w.vec([&](int lane) {
            tidx[static_cast<std::size_t>(lane)] =
                static_cast<std::uint32_t>(ctx.block_id());
            const auto l = static_cast<std::size_t>(lane);
            total[l] = vals[l] + (gidx[l] < n ? orig[l] : 0);
          });
          w.scatter(tile_sums.data(), tidx, total);
        });
      }
    });
  });
}

template <class T>
std::vector<T> scan_device(simt::Engine& engine, std::span<const T> input,
                           const std::string& kernel_name) {
  std::vector<T> out(input.size() + 1, 0);
  if (input.empty()) return out;

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
  const int num_tiles =
      static_cast<int>((input.size() + kBlockThreads - 1) / kBlockThreads);
  simt::DeviceVector<T> tile_sums(static_cast<std::size_t>(num_tiles));
  simt::DeviceVector<T> scanned(input.size());
  scan_tiles<T>(engine, in, {scanned.data(), scanned.size()},
                {tile_sums.data(), tile_sums.size()}, kernel_name);

  // Scan the per-tile totals (recursively on the device for large inputs,
  // directly for the final small level).
  std::vector<T> tile_offsets;
  if (tile_sums.size() > 1) {
    tile_offsets = scan_device<T>(
        engine, {tile_sums.data(), tile_sums.size()}, kernel_name);
  } else {
    tile_offsets = {0, tile_sums[0]};
  }

  for (std::size_t i = 0; i < input.size(); ++i)
    out[i] = scanned[i] + tile_offsets[i / kBlockThreads];
  out[input.size()] = tile_offsets.back();
  return out;
}

}  // namespace

std::vector<std::uint32_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint32_t> input,
    const std::string& kernel_name) {
  return scan_device(engine, input, kernel_name);
}

std::vector<std::uint64_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint64_t> input,
    const std::string& kernel_name) {
  return scan_device(engine, input, kernel_name);
}

}  // namespace repro::gpualgo
