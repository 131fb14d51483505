// Segmented sort of 64-bit keys, expressed as a SIMT kernel: one warp per
// run of 32 consecutive segments over a grid-stride launch (the ModernGPU
// segmented-sort stand-in of DESIGN.md §1). cuBLASTP sorts each hit bin
// with this; the packed (sequence | diagonal | subject-position) key
// (paper Fig. 7) makes one ascending sort order the hits for the extension
// kernels.
//
// Segments of up to 32 keys sort in registers with a bitonic network over
// WarpExec::shfl_xor, several at once: consecutive short segments sit side
// by side, each in a group of p lanes (p a power of two, the same for the
// whole pack) padded with kSortPad, and one network sorts every group. A
// packed lane learns its segment's extent from one coalesced load of the
// run's offsets and a shuffle. Longer segments run the same network
// through the warp's shared-memory slice, or in place in global memory
// when they are too long for it. Segments need no padding in memory: the
// network treats the keys past a segment's end as +infinity.
//
// The keys may start out elsewhere than in the output: in fixed-pitch rows,
// as K1's bin grid holds them. Each segment's first pass then reads its row
// and the sorted segment lands in the output, so the copy costs no pass of
// its own.
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

/// Where the unsorted keys are when they are not in `data`: segment s's
/// keys start at keys + s * pitch (pitch >= the longest segment). Rows may
/// hold anything past their segment's length; the sort never reads it.
struct SegmentRows {
  const std::uint64_t* keys = nullptr;
  std::uint32_t pitch = 0;
};

/// Sorts each segment of `data` ascending. seg_offsets has num_segments+1
/// entries; segments may have any length. Without `rows` the segments sort
/// in place (length <= 1 is left untouched); with them, segment s is read
/// from its row and written sorted to data[seg_offsets[s]..], so every key
/// of `data` is written. Offsets outside device memory are staged into a
/// device buffer first.
void segmented_sort_u64(simt::Engine& engine, std::span<std::uint64_t> data,
                        std::span<const std::uint32_t> seg_offsets,
                        const std::string& kernel_name = "hit_sort",
                        SegmentRows rows = {});

}  // namespace repro::gpualgo
