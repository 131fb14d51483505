// CUDA-style occupancy calculation: how many blocks of a kernel fit on one
// SM given its thread, block-slot, shared-memory and register limits, and
// the resulting fraction of the SM's resident-thread capacity.
//
// The paper leans on this twice: more bins per warp raise shared-memory use
// and "decrease the occupancy of the kernel" (Fig. 14), and a PSSM larger
// than shared memory forces the scoring-matrix fallback (Fig. 15).
#pragma once

#include <cstddef>

#include "simt/device.hpp"

namespace repro::simt {

struct OccupancyResult {
  int blocks_per_sm = 0;
  int active_threads_per_sm = 0;
  double occupancy = 0.0;  ///< active threads / max threads
  const char* limiter = "none";
};

[[nodiscard]] OccupancyResult compute_occupancy(const DeviceSpec& spec,
                                                int block_threads,
                                                std::size_t shared_bytes,
                                                int regs_per_thread);

/// Grid of a warp-per-item, grid-stride kernel: one warp per item, capped
/// at the blocks that fill every SM to its resident-thread limit (the warps
/// then stride over the remaining items). At least one block.
[[nodiscard]] int grid_stride_blocks(const DeviceSpec& spec, std::size_t items,
                                     int block_threads);

}  // namespace repro::simt
