// Segmented sort of 64-bit keys, expressed as a SIMT kernel: one warp per
// segment over a grid-stride launch (the ModernGPU segmented-sort stand-in
// of DESIGN.md §1). cuBLASTP sorts each hit bin with this; the packed
// (sequence | diagonal | subject-position) key (paper Fig. 7) makes one
// ascending sort order the hits for the extension kernels.
//
// Segments of up to 32 keys sort in registers with a bitonic network over
// WarpExec::shfl_xor. Longer segments run the same network through the
// warp's shared-memory slice, or in place in global memory when they are
// too long for it. Segments need no padding: the network treats the keys
// past a segment's end as +infinity and masks off the comparators that
// reach them.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "simt/engine.hpp"

namespace repro::gpualgo {

/// The largest key. Callers may still pad segments with it (it sorts to the
/// end), but segmented_sort_u64 never needs them to.
inline constexpr std::uint64_t kSortPad = ~0ULL;

/// Next power of two (>= 1).
[[nodiscard]] constexpr std::uint32_t next_pow2(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Sorts each segment of `data` ascending. seg_offsets has num_segments+1
/// entries; segments may have any length (length <= 1 is left untouched).
void segmented_sort_u64(simt::Engine& engine, std::span<std::uint64_t> data,
                        std::span<const std::uint32_t> seg_offsets,
                        const std::string& kernel_name = "hit_sort");

}  // namespace repro::gpualgo
