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
// pack never spans a longer segment, so a run's packs and long segments
// come in segment order. A packed lane learns its segment's extent from
// one coalesced load of the run's offsets and a shuffle. Longer segments
// run the same network through the warp's shared-memory slice, or in
// place in global memory when they are too long for it. Segments need no
// padding in memory: the network treats the keys past a segment's end as
// +infinity.
//
// The keys may start out elsewhere than in the output: in fixed-pitch rows,
// as K1's bin grid holds them. Each segment's first pass then reads its row
// and the sorted segment lands in the output, so the copy costs no pass of
// its own.
//
// A kernel that consumes sorted segments can take the short ones off the
// sort: sort_long_segments_u64 sorts only the long ones, and the consumer
// walks each run itself (walk_run), receiving every sorted pack in
// registers — its own epilogue in place of the store — and every long
// segment in order between them.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "simt/engine.hpp"

namespace repro::gpualgo {

/// The largest key. Callers may still pad segments with it (it sorts to the
/// end), but segmented_sort_u64 never needs them to.
inline constexpr std::uint64_t kSortPad = ~0ULL;

/// Consecutive segments one warp takes.
inline constexpr std::uint32_t kRunSegments = simt::kWarpSize;
/// Segments of at most this many keys sort in registers, several per
/// network; longer ones sort one at a time.
inline constexpr std::uint32_t kPackMaxKeys = simt::kWarpSize;

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

/// segmented_sort_u64 for the segments longer than kPackMaxKeys only: the
/// shorter ones are neither read nor written, and are left to a consumer
/// that walks the runs itself (walk_run). It launches even when no segment
/// is that long.
void sort_long_segments_u64(simt::Engine& engine,
                            std::span<std::uint64_t> data,
                            std::span<const std::uint32_t> seg_offsets,
                            const std::string& kernel_name,
                            SegmentRows rows = {});

// --------------------------------------------------------------------------
// One warp's walk over a run, for kernels that consume the sorted segments
// --------------------------------------------------------------------------

/// The segments a walk reads: extents in `offsets` (num_segments + 1
/// entries in device memory: a warp reads them uniformly to plan its packs,
/// and packed lanes load them), keys in `rows` when set, else in `data`.
struct RunSegments {
  const std::uint32_t* offsets = nullptr;
  std::size_t num_segments = 0;
  const std::uint64_t* data = nullptr;
  SegmentRows rows;
};

/// A pack sorted in registers, as its epilogue receives it. Lane l is at
/// position pos[l] of its group's segment, which holds len[l] keys (0 in
/// the groups past the last): while pos < len it holds that segment's
/// sorted key pos, whose place in `data` is at[l]; past it, kSortPad.
struct SortedPack {
  simt::LaneArray<std::uint64_t> keys{};
  simt::LaneArray<std::uint32_t> at{};
  simt::LaneArray<std::uint32_t> pos{};
  simt::LaneArray<std::uint32_t> len{};
  std::uint32_t width = 0;
};

namespace detail {

/// Short segments of one run that sort together: group g of `width` lanes
/// holds the run's segment seg[g], padded with kSortPad.
struct Pack {
  std::uint32_t width = 0;
  std::uint32_t groups = 0;
  std::array<std::uint32_t, simt::kWarpSize> seg{};
};

/// Lane j's extent of the run's segment first + j, end << 32 | start: one
/// coalesced load of the run's offsets and a shuffle.
simt::LaneArray<std::uint64_t> load_run_extents(simt::WarpExec& w,
                                                const RunSegments& in,
                                                std::size_t first);

/// Loads `pack` of the run starting at segment `first` (ext from
/// load_run_extents) and sorts it in one register network.
SortedPack sort_pack(simt::WarpExec& w, const RunSegments& in,
                     const simt::LaneArray<std::uint64_t>& ext,
                     const Pack& pack, std::size_t first);

}  // namespace detail

/// Walks the run of segments starting at `first` (a multiple of
/// kRunSegments) in segment order. Consecutive segments of min_len ..
/// kPackMaxKeys keys sort in packs, and each sorted pack goes to
/// on_pack(const SortedPack&); a pack grows while its groups fit the warp
/// and never spans a longer segment. Each longer segment goes to
/// on_long(s, start, n). Shorter segments are skipped. The extents read
/// here are warp-uniform: they pick the path and plan the packs.
template <class OnPack, class OnLong>
void walk_run(simt::WarpExec& w, const RunSegments& in, std::size_t first,
              std::uint32_t min_len, OnPack&& on_pack, OnLong&& on_long) {
  const std::size_t last = std::min<std::size_t>(first + kRunSegments,
                                                 in.num_segments);
  const auto length = [&](std::size_t s) {
    return in.offsets[s + 1] - in.offsets[s];
  };
  bool any_short = false;
  for (std::size_t s = first; s < last && !any_short; ++s)
    any_short = length(s) >= min_len && length(s) <= kPackMaxKeys;
  simt::LaneArray<std::uint64_t> ext{};
  if (any_short) ext = detail::load_run_extents(w, in, first);

  detail::Pack pack;
  const auto flush = [&] {
    if (pack.groups == 0) return;
    on_pack(detail::sort_pack(w, in, ext, pack, first));
    pack = detail::Pack{};
  };
  for (std::size_t s = first; s < last; ++s) {
    const std::uint32_t n = length(s);
    if (n > kPackMaxKeys) {
      flush();
      on_long(s, in.offsets[s], n);
      continue;
    }
    if (n < min_len) continue;
    const std::uint32_t width = std::bit_ceil(n);
    if ((pack.groups + 1) * std::max(pack.width, width) > simt::kWarpSize)
      flush();
    pack.width = std::max(pack.width, width);
    pack.seg[pack.groups++] = static_cast<std::uint32_t>(s - first);
  }
  flush();
}

}  // namespace repro::gpualgo
