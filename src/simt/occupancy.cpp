#include "simt/occupancy.hpp"

#include <algorithm>

namespace repro::simt {

OccupancyResult compute_occupancy(const DeviceSpec& spec, int block_threads,
                                  std::size_t shared_bytes,
                                  int regs_per_thread) {
  OccupancyResult out;
  if (block_threads <= 0 || block_threads > spec.max_threads_per_block ||
      shared_bytes > spec.shared_mem_per_block) {
    out.limiter = "launch-invalid";
    return out;
  }

  int limit = spec.max_blocks_per_sm;
  const char* limiter = "block-slots";

  const int by_threads = spec.max_threads_per_sm / block_threads;
  if (by_threads < limit) {
    limit = by_threads;
    limiter = "threads";
  }

  if (shared_bytes > 0) {
    const int by_shared =
        static_cast<int>(spec.shared_mem_per_sm / shared_bytes);
    if (by_shared < limit) {
      limit = by_shared;
      limiter = "shared-memory";
    }
  }

  if (regs_per_thread > 0) {
    const int by_regs =
        spec.registers_per_sm / (regs_per_thread * block_threads);
    if (by_regs < limit) {
      limit = by_regs;
      limiter = "registers";
    }
  }

  out.blocks_per_sm = std::max(0, limit);
  out.active_threads_per_sm = out.blocks_per_sm * block_threads;
  out.occupancy = static_cast<double>(out.active_threads_per_sm) /
                  static_cast<double>(spec.max_threads_per_sm);
  out.limiter = out.blocks_per_sm == 0 ? "does-not-fit" : limiter;
  return out;
}

int grid_stride_blocks(const DeviceSpec& spec, std::size_t items,
                       int block_threads) {
  const auto warps_per_block =
      static_cast<std::size_t>(block_threads / kWarpSize);
  const auto resident = static_cast<std::size_t>(
      spec.num_sms * (spec.max_threads_per_sm / block_threads));
  const std::size_t needed = (items + warps_per_block - 1) / warps_per_block;
  return static_cast<int>(std::clamp<std::size_t>(needed, 1, resident));
}

}  // namespace repro::simt
