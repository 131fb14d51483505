#include "gpualgo/segsort.hpp"

#include <algorithm>
#include <bit>

#include "simt/occupancy.hpp"

namespace repro::gpualgo {

namespace {

constexpr int kBlockThreads = 128;
constexpr int kWarpsPerBlock = kBlockThreads / simt::kWarpSize;
constexpr std::uint32_t kChunk = simt::kWarpSize;

/// A block spends at most 32 kB of its 48 kB shared budget on staging, one
/// slice per warp; a segment longer than a slice sorts in global memory.
constexpr std::uint32_t kMaxStagedKeys =
    32 * 1024 / sizeof(std::uint64_t) / kWarpsPerBlock;

using simt::BlockCtx;
using simt::LaneArray;
using simt::WarpExec;
using Keys = LaneArray<std::uint64_t>;
using Index = LaneArray<std::uint32_t>;

// The network is the bitonic sorter in its all-ascending form. Merge k
// opens with a "flip" stage comparing index i with i ^ (k - 1), then runs
// half-cleaners comparing i with i ^ j for j = k/4 .. 1; every comparator
// moves the smaller key to the lower index. A key past the segment's end
// counts as +infinity, so a comparator that reaches one is a no-op and is
// masked off: n keys sort as if padded to next_pow2(n), with no pad stored.

/// One stage inside each chunk of 32 lanes: lanes i and i ^ mask compare,
/// and the lane with bit `low` clear keeps the smaller key.
void chunk_stage(WarpExec& w, Keys& keys, std::uint32_t mask,
                 std::uint32_t low) {
  Keys peer = keys;
  w.shfl_xor(peer, static_cast<int>(mask));
  w.vec([&](int lane) {
    const auto l = static_cast<std::size_t>(lane);
    keys[l] = (static_cast<std::uint32_t>(lane) & low) == 0
                  ? std::min(keys[l], peer[l])
                  : std::max(keys[l], peer[l]);
  });
}

/// Merges k = 2 .. width: sorts every group of `width` lanes.
void sort_in_registers(WarpExec& w, Keys& keys, std::uint32_t width) {
  for (std::uint32_t k = 2; k <= width; k <<= 1) {
    chunk_stage(w, keys, k - 1, k / 2);
    for (std::uint32_t j = k / 4; j >= 1; j >>= 1) chunk_stage(w, keys, j, j);
  }
}

/// Runs `fn` on the lanes whose idx is below n: on the whole warp when the
/// largest idx is (a uniform branch), else under a predicate.
template <class F>
void below(WarpExec& w, const Index& idx, std::uint32_t max_idx,
           std::uint32_t n, F&& fn) {
  if (max_idx < n) {
    fn();
  } else {
    w.if_then(
        [&](int lane) { return idx[static_cast<std::size_t>(lane)] < n; }, fn);
  }
}

/// A segment's keys in global memory.
struct GlobalKeys {
  std::uint64_t* keys;
  void load(WarpExec& w, const Index& idx, Keys& out) const {
    w.gather(keys, idx, out);
  }
  void store(WarpExec& w, const Index& idx, const Keys& vals) const {
    w.scatter(keys, idx, vals);
  }
};

/// A segment's keys staged in the warp's shared-memory slice.
struct SharedKeys {
  std::span<std::uint64_t> keys;
  void load(WarpExec& w, const Index& idx, Keys& out) const {
    w.sh_gather<std::uint64_t, std::uint32_t>(keys, idx, out);
  }
  void store(WarpExec& w, const Index& idx, const Keys& vals) const {
    w.sh_scatter<std::uint64_t, std::uint32_t>(keys, idx, vals);
  }
};

/// Chunk c of an n-key segment into registers; lanes past the end hold
/// kSortPad, the network's +infinity.
template <class Store>
void load_chunk(WarpExec& w, const Store& from, std::uint32_t c,
                std::uint32_t n, Index& idx, Keys& keys) {
  w.vec([&](int lane) {
    const auto l = static_cast<std::size_t>(lane);
    idx[l] = c * kChunk + static_cast<std::uint32_t>(lane);
    keys[l] = kSortPad;
  });
  below(w, idx, c * kChunk + kChunk - 1, n, [&] { from.load(w, idx, keys); });
}

template <class Store>
void store_chunk(WarpExec& w, const Store& to, std::uint32_t c,
                 std::uint32_t n, const Index& idx, const Keys& keys) {
  below(w, idx, c * kChunk + kChunk - 1, n, [&] { to.store(w, idx, keys); });
}

/// Stage (k, j >= 32) of a segment of n keys, p = next_pow2(n): its
/// comparators pair keys of different chunks, one comparator per lane.
template <class Store>
void cross_chunk_stage(WarpExec& w, const Store& work, std::uint32_t n,
                       std::uint32_t p, std::uint32_t k, std::uint32_t j) {
  const bool flip = j == k / 2;
  for (std::uint32_t g = 0; g < p / 2; g += kChunk) {
    // Lane 0's lower index: comparator g with a zero bit inserted at j.
    const std::uint32_t lo0 = ((g & ~(j - 1)) << 1) | (g & (j - 1));
    // Flip partners run backwards across the lanes, half-cleaners forwards.
    const std::uint32_t hi_min =
        flip ? (lo0 ^ (k - 1)) - (kChunk - 1) : lo0 + j;
    const std::uint32_t hi_max = flip ? lo0 ^ (k - 1) : lo0 + j + kChunk - 1;
    if (hi_min >= n) continue;  // every comparator reaches past the end
    Index lo{};
    Index hi{};
    w.vec([&](int lane) {
      const auto l = static_cast<std::size_t>(lane);
      lo[l] = lo0 + static_cast<std::uint32_t>(lane);
      hi[l] = flip ? lo[l] ^ (k - 1) : lo[l] + j;
    });
    below(w, hi, hi_max, n, [&] {
      Keys a{};
      Keys b{};
      work.load(w, lo, a);
      work.load(w, hi, b);
      w.vec([&](int lane) {
        const auto l = static_cast<std::size_t>(lane);
        const std::uint64_t x = a[l];
        a[l] = std::min(x, b[l]);
        b[l] = std::max(x, b[l]);
      });
      work.store(w, lo, a);
      work.store(w, hi, b);
    });
  }
}

/// Sorts a segment of n >= 2 keys. Each chunk sorts in registers on its
/// way in (merges up to k = min(p, 32)); every wider merge runs its
/// cross-chunk stages through `work` and its last five stages inside each
/// chunk, in registers. The last merge writes back to `seg`, so a segment
/// of at most 32 keys never touches `work`.
template <class Store>
void sort_segment(WarpExec& w, std::uint64_t* seg, std::uint32_t n,
                  const Store& work) {
  const GlobalKeys global{seg};
  const std::uint32_t chunks = (n + kChunk - 1) / kChunk;
  const std::uint32_t p = std::bit_ceil(n);
  Index idx{};
  Keys keys{};
  auto put = [&](std::uint32_t c, bool last_merge) {
    if (last_merge)
      store_chunk(w, global, c, n, idx, keys);
    else
      store_chunk(w, work, c, n, idx, keys);
  };
  for (std::uint32_t c = 0; c < chunks; ++c) {
    load_chunk(w, global, c, n, idx, keys);
    sort_in_registers(w, keys, std::min(p, kChunk));
    put(c, p <= kChunk);
  }
  for (std::uint32_t k = 2 * kChunk; k <= p; k <<= 1) {
    for (std::uint32_t j = k / 2; j >= kChunk; j >>= 1)
      cross_chunk_stage(w, work, n, p, k, j);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      load_chunk(w, work, c, n, idx, keys);
      for (std::uint32_t j = kChunk / 2; j >= 1; j >>= 1)
        chunk_stage(w, keys, j, j);
      put(c, k == p);
    }
  }
}

}  // namespace

void segmented_sort_u64(simt::Engine& engine, std::span<std::uint64_t> data,
                        std::span<const std::uint32_t> seg_offsets,
                        const std::string& kernel_name) {
  if (seg_offsets.size() < 2) return;
  const std::size_t num_segments = seg_offsets.size() - 1;
  auto length = [&](std::size_t s) {
    return seg_offsets[s + 1] - seg_offsets[s];
  };

  // Every warp's slice fits the longest segment staged in shared memory; a
  // launch that stages none allocates nothing and keeps full occupancy.
  std::uint32_t slice = 0;
  for (std::size_t s = 0; s < num_segments; ++s) {
    const std::uint32_t n = length(s);
    if (n > kChunk && n <= kMaxStagedKeys) slice = std::max(slice, n);
  }

  simt::LaunchConfig config;
  config.name = kernel_name;
  config.grid_blocks =
      simt::grid_stride_blocks(engine.spec(), num_segments, kBlockThreads);
  config.block_threads = kBlockThreads;
  config.regs_per_thread = 24;

  engine.launch(config, [&](BlockCtx& ctx) {
    std::span<std::uint64_t> staging;
    if (slice > 0)
      staging = ctx.shared().alloc<std::uint64_t>(
          static_cast<std::size_t>(slice) * kWarpsPerBlock);
    ctx.par([&](WarpExec& w) {
      const SharedKeys mine{staging.subspan(
          static_cast<std::size_t>(w.warp_in_block()) * slice, slice)};
      const auto stride = static_cast<std::size_t>(w.num_warps_total());
      for (auto s = static_cast<std::size_t>(w.global_warp_id());
           s < num_segments; s += stride) {
        // Segment extents are host-side and warp-uniform.
        const std::uint32_t n = length(s);
        std::uint64_t* seg = data.data() + seg_offsets[s];
        if (n <= 1) continue;
        // Up to 32 keys never leave registers; longer segments merge
        // through the warp's slice when they fit it, else in place.
        if (n > kChunk && n <= kMaxStagedKeys)
          sort_segment(w, seg, n, mine);
        else
          sort_segment(w, seg, n, GlobalKeys{seg});
      }
    });
  });
}

}  // namespace repro::gpualgo
