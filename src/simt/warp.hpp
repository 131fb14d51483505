// Warp-synchronous execution with measured divergence and coalescing.
//
// Kernels are written against this API in the explicitly-masked SIMT style:
// per-lane work goes through vec()/gather()/scatter()/atomic ops, control
// flow through if_then()/loop_while(). The engine executes the 32 lanes of
// a warp in lockstep (serially, with an active mask) and records, for every
// warp-level step, how many lanes were active and how many 32-byte memory
// sectors the lane addresses required. Divergence overhead and global
// load efficiency in the paper's Fig. 19 are computed from these traces —
// measured from the same algorithmic behaviour as on real hardware, not
// assumed.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "simt/metrics.hpp"
#include "simt/rocache.hpp"
#include "simt/simtcheck.hpp"

namespace repro::simt {

template <class T>
using LaneArray = std::array<T, kWarpSize>;

using Mask = std::uint32_t;
inline constexpr Mask kFullMask = 0xffffffffu;

/// Set bits of mask below lane: a lane's exclusive rank among the lanes a
/// ballot selected (the __popc(mask & %lanemask_lt) idiom).
[[nodiscard]] inline std::uint32_t rank_below(Mask mask, int lane) {
  return static_cast<std::uint32_t>(
      std::popcount(mask & ((Mask{1} << lane) - 1u)));
}

enum class MemKind { kGlobal, kReadOnly };

class WarpExec {
 public:
  WarpExec(KernelStats& stats, ReadOnlyCache* rocache, int block_id,
           int warp_in_block, int warps_per_block, int grid_blocks,
           BlockChecker* check = nullptr)
      : stats_(&stats),
        rocache_(rocache),
        block_id_(block_id),
        warp_in_block_(warp_in_block),
        warps_per_block_(warps_per_block),
        grid_blocks_(grid_blocks),
        check_(check) {}

  // --- identity -----------------------------------------------------------
  [[nodiscard]] int block_id() const { return block_id_; }
  [[nodiscard]] int warp_in_block() const { return warp_in_block_; }
  [[nodiscard]] int warps_per_block() const { return warps_per_block_; }
  [[nodiscard]] int grid_blocks() const { return grid_blocks_; }
  [[nodiscard]] int global_warp_id() const {
    return block_id_ * warps_per_block_ + warp_in_block_;
  }
  [[nodiscard]] int num_warps_total() const {
    return grid_blocks_ * warps_per_block_;
  }
  [[nodiscard]] int thread_id(int lane) const {
    return (block_id_ * warps_per_block_ + warp_in_block_) * kWarpSize + lane;
  }

  [[nodiscard]] Mask active_mask() const { return active_; }
  [[nodiscard]] int active_lanes() const { return std::popcount(active_); }
  [[nodiscard]] bool lane_active(int lane) const {
    return (active_ >> lane) & 1u;
  }

  // --- instruction issue ---------------------------------------------------
  /// One warp-level ALU step: f(lane) runs for every active lane.
  template <class F>
  void vec(F&& f) {
    note_op();
    for_active(std::forward<F>(f));
  }

  /// Warp vote: evaluates pred(lane) on active lanes.
  template <class P>
  [[nodiscard]] Mask ballot(P&& pred) {
    note_op();
    Mask m = 0;
    for_active([&](int lane) {
      if (pred(lane)) m |= 1u << lane;
    });
    return m;
  }

  template <class P>
  [[nodiscard]] bool any(P&& pred) {
    return ballot(std::forward<P>(pred)) != 0;
  }

  /// Structured branch: lanes where pred holds execute then_fn under a
  /// narrowed mask. Divergence shows up as reduced active-lane counts on
  /// every op inside.
  template <class P, class F>
  void if_then(P&& pred, F&& then_fn) {
    const Mask taken = ballot(std::forward<P>(pred));
    if (taken) {
      const Mask saved = active_;
      active_ = taken;
      then_fn();
      active_ = saved;
    }
  }

  /// Two-sided branch: both paths execute serially when both are non-empty
  /// (the SIMT serialization of Fig. 4).
  template <class P, class F, class G>
  void if_then_else(P&& pred, F&& then_fn, G&& else_fn) {
    const Mask taken = ballot(std::forward<P>(pred));
    const Mask saved = active_;
    if (taken) {
      active_ = taken;
      then_fn();
      active_ = saved;
    }
    const Mask not_taken = saved & ~taken;
    if (not_taken) {
      active_ = not_taken;
      else_fn();
      active_ = saved;
    }
  }

  /// SIMT loop: iterates while any active lane's cond holds; lanes that
  /// finish early sit idle (and are charged as divergence) until the last
  /// lane exits.
  template <class C, class B>
  void loop_while(C&& cond, B&& body) {
    const Mask saved = active_;
    for (;;) {
      const Mask live = ballot(cond);
      if (!live) break;
      active_ = live;
      body();
    }
    active_ = saved;
  }

  // --- global memory -------------------------------------------------------
  /// Gathers base[idx[lane]] for active lanes; counts one load request and
  /// the distinct 32-byte sectors it touches.
  template <class T, class I>
  void gather(const T* base, const LaneArray<I>& idx, LaneArray<T>& out,
              MemKind kind = MemKind::kGlobal) {
    if (check_ != nullptr) check_global(base, idx, AccessKind::kRead);
    note_op();
    ++stats_->ld_requests;
    begin_segments();
    for_active([&](int lane) {
      const T* p = base + idx[static_cast<std::size_t>(lane)];
      out[static_cast<std::size_t>(lane)] = *p;
      stats_->ld_bytes_requested += sizeof(T);
      add_segment(reinterpret_cast<std::uintptr_t>(p));
    });
    commit_load_segments(kind);
  }

  /// Scatters vals to base[idx[lane]]. Lane order is the commit order, so
  /// colliding lanes resolve deterministically (highest lane wins, matching
  /// one legal CUDA outcome).
  template <class T, class I>
  void scatter(T* base, const LaneArray<I>& idx, const LaneArray<T>& vals) {
    if (check_ != nullptr) check_global(base, idx, AccessKind::kWrite);
    note_op();
    ++stats_->st_requests;
    begin_segments();
    for_active([&](int lane) {
      T* p = base + idx[static_cast<std::size_t>(lane)];
      *p = vals[static_cast<std::size_t>(lane)];
      stats_->st_bytes_requested += sizeof(T);
      add_segment(reinterpret_cast<std::uintptr_t>(p));
    });
    stats_->st_transactions += static_cast<std::uint64_t>(num_segments_);
  }

  /// Atomic fetch-add on global memory. Colliding addresses within the warp
  /// serialize: lanes commit in lane order and the extra passes are charged.
  /// The RMW itself is a real std::atomic fetch-add, so blocks running on
  /// different host workers (the SM-sharded engine) may target the same
  /// counter race-free; like on hardware, only the final sum — not the
  /// per-lane `old` values — is deterministic under such cross-block
  /// contention.
  template <class T, class I>
  void atomic_add_global(T* base, const LaneArray<I>& idx,
                         const LaneArray<T>& vals, LaneArray<T>& old) {
    if (check_ != nullptr) check_global(base, idx, AccessKind::kAtomic);
    note_op();
    ++stats_->atomic_ops;
    begin_segments();
    std::uint64_t max_collisions =
        do_atomic_add<true>(base, idx, vals, old);
    stats_->st_transactions += static_cast<std::uint64_t>(num_segments_);
    if (max_collisions > 1)
      stats_->atomic_serial_passes += max_collisions - 1;
  }

  // --- shared memory -------------------------------------------------------
  /// Shared-memory gather with bank-conflict accounting (32 banks of 4 B).
  template <class T, class I>
  void sh_gather(std::span<const T> region, const LaneArray<I>& idx,
                 LaneArray<T>& out) {
    if (check_ != nullptr)
      check_shared(region.data(), region.size(), idx, AccessKind::kRead);
    note_op();
    ++stats_->shared_ops;
    // Single pass: move the data and tally bank pressure together.
    std::array<std::uint8_t, kWarpSize> bank_load{};
    std::uint8_t worst = 1;
    for_active([&](int lane) {
      const auto j =
          static_cast<std::size_t>(idx[static_cast<std::size_t>(lane)]);
      const auto addr = reinterpret_cast<std::uintptr_t>(region.data() + j);
      worst = std::max(
          worst, ++bank_load[static_cast<std::size_t>((addr >> 2) & 31u)]);
      out[static_cast<std::size_t>(lane)] = region[j];
    });
    if (worst > 1) stats_->shared_conflict_passes += worst - 1;
  }

  template <class T, class I>
  void sh_scatter(std::span<T> region, const LaneArray<I>& idx,
                  const LaneArray<T>& vals) {
    if (check_ != nullptr)
      check_shared(region.data(), region.size(), idx, AccessKind::kWrite);
    note_op();
    ++stats_->shared_ops;
    std::array<std::uint8_t, kWarpSize> bank_load{};
    std::uint8_t worst = 1;
    for_active([&](int lane) {
      const auto j =
          static_cast<std::size_t>(idx[static_cast<std::size_t>(lane)]);
      const auto addr = reinterpret_cast<std::uintptr_t>(region.data() + j);
      worst = std::max(
          worst, ++bank_load[static_cast<std::size_t>((addr >> 2) & 31u)]);
      region[j] = vals[static_cast<std::size_t>(lane)];
    });
    if (worst > 1) stats_->shared_conflict_passes += worst - 1;
  }

  /// Atomic fetch-add on shared memory (paper Alg. 2's top[] counters):
  /// cheaper than global atomics but still serializes on collisions.
  template <class T, class I>
  void atomic_add_shared(std::span<T> region, const LaneArray<I>& idx,
                         const LaneArray<T>& vals, LaneArray<T>& old) {
    if (check_ != nullptr)
      check_shared(region.data(), region.size(), idx, AccessKind::kAtomic);
    note_op();
    ++stats_->shared_ops;
    ++stats_->atomic_ops;
    std::uint64_t max_collisions =
        do_atomic_add<false>(region.data(), idx, vals, old);
    if (max_collisions > 1)
      stats_->atomic_serial_passes += max_collisions - 1;
  }

  // --- warp collectives ----------------------------------------------------
  /// Inclusive plus-scan within fixed-width windows (CUB-style; the paper's
  /// window-based extension uses width 8). Charged log2(width) steps.
  template <class T>
  void window_inclusive_scan(LaneArray<T>& vals, int width) {
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width,
                            "window_inclusive_scan");
    for (int delta = 1; delta < width; delta <<= 1) {
      note_op();
      LaneArray<T> prev = vals;
      for_active([&](int lane) {
        if (lane % width >= delta)
          vals[static_cast<std::size_t>(lane)] +=
              prev[static_cast<std::size_t>(lane - delta)];
      });
    }
  }

  /// Inclusive max-scan within fixed-width windows: lane i of a window ends
  /// with max(vals[first..i]). The window-based extension uses this to get
  /// the running best score per position (paper Fig. 8's "highest score").
  template <class T>
  void window_inclusive_max_scan(LaneArray<T>& vals, int width) {
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width,
                            "window_inclusive_max_scan");
    for (int delta = 1; delta < width; delta <<= 1) {
      note_op();
      LaneArray<T> prev = vals;
      for_active([&](int lane) {
        if (lane % width >= delta)
          vals[static_cast<std::size_t>(lane)] =
              std::max(vals[static_cast<std::size_t>(lane)],
                       prev[static_cast<std::size_t>(lane - delta)]);
      });
    }
  }

  /// Maximum over each width-lane window, broadcast to the window's lanes.
  /// Like __shfl_down_sync-based reductions, this assumes the active mask
  /// is uniform within each window: a lane may read an inactive peer's
  /// value, which on hardware would be undefined.
  template <class T>
  void window_reduce_max(LaneArray<T>& vals, int width) {
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width,
                            "window_reduce_max");
    for (int delta = width / 2; delta >= 1; delta >>= 1) {
      note_op();
      LaneArray<T> prev = vals;
      for_active([&](int lane) {
        const int peer = (lane % width < width - delta) ? lane + delta : lane;
        vals[static_cast<std::size_t>(lane)] =
            std::max(vals[static_cast<std::size_t>(lane)],
                     prev[static_cast<std::size_t>(peer)]);
      });
    }
    // The delta loop is a shfl_down-style reduction, not a symmetric
    // butterfly: lane i only ever combines with higher lanes (peer =
    // lane + delta), so after the loop lane i holds the max of the window
    // *suffix* starting at i — only the window's lane 0 holds the max of
    // the whole window (width 4, deltas 2,1: lane 1 ends with
    // max(v1,v2,v3), never seeing v0). The broadcast pass below is
    // therefore required to hand lane 0's value to every lane.
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      vals[static_cast<std::size_t>(lane)] =
          prev[static_cast<std::size_t>(lane - lane % width)];
    });
  }

  /// Shuffle-up by delta within windows.
  template <class T>
  void shfl_up(LaneArray<T>& vals, int delta, int width = kWarpSize) {
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width, "shfl_up");
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      if (lane % width >= delta)
        vals[static_cast<std::size_t>(lane)] =
            prev[static_cast<std::size_t>(lane - delta)];
    });
  }

  /// Indexed shuffle (__shfl_sync): lane i reads lane src[i] of its own
  /// width-lane window (src taken modulo width, as on hardware). K4 takes
  /// each survivor's previous survivor from this, and the window extension
  /// broadcasts a window's total with it.
  template <class T>
  void shfl(LaneArray<T>& vals, const LaneArray<int>& src,
            int width = kWarpSize) {
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width, "shfl");
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      const int from = lane - lane % width +
                       src[static_cast<std::size_t>(lane)] % width;
      vals[static_cast<std::size_t>(lane)] =
          prev[static_cast<std::size_t>(from)];
    });
  }

  /// shfl with one source lane for every window (a broadcast).
  template <class T>
  void shfl(LaneArray<T>& vals, int src, int width = kWarpSize) {
    LaneArray<int> from{};
    from.fill(src);
    shfl(vals, from, width);
  }

  /// Butterfly shuffle (__shfl_xor_sync): lane i reads lane i ^ lane_mask.
  /// As on hardware, a lane whose source lies in a later width-lane window
  /// keeps its own value. The bitonic networks of gpualgo::segmented_sort_u64
  /// are built from this.
  template <class T>
  void shfl_xor(LaneArray<T>& vals, int lane_mask, int width = kWarpSize) {
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width, "shfl_xor");
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      const int src = lane ^ lane_mask;
      if (src < (lane / width + 1) * width)
        vals[static_cast<std::size_t>(lane)] =
            prev[static_cast<std::size_t>(src)];
    });
  }

 private:
  // --- simtcheck instrumentation (cold; reached only with a checker) ------
  // ballot/if_then/loop_while are deliberately not flagged: predication via
  // __ballot_sync is mask-safe on hardware. Only ops that read peer lanes
  // (the window collectives) or touch memory feed the analyzer.
  template <class T, class I>
  void check_global(const T* base, const LaneArray<I>& idx, AccessKind kind) {
    for_active([&](int lane) {
      const auto addr =
          reinterpret_cast<std::uintptr_t>(base) +
          static_cast<std::uintptr_t>(idx[static_cast<std::size_t>(lane)]) *
              sizeof(T);
      check_->global_access(warp_in_block_, addr, sizeof(T), kind);
    });
  }

  template <class T, class I>
  void check_shared(const T* data, std::size_t size, const LaneArray<I>& idx,
                    AccessKind kind) {
    for_active([&](int lane) {
      const auto j =
          static_cast<std::size_t>(idx[static_cast<std::size_t>(lane)]);
      const auto addr = reinterpret_cast<std::uintptr_t>(data) +
                        static_cast<std::uintptr_t>(j) * sizeof(T);
      check_->shared_access(warp_in_block_, addr, sizeof(T), kind,
                            /*span_oob=*/j >= size);
    });
  }

  template <class F>
  void for_active(F&& f) {
    // Fast path: converged warps (the common case by far) take a straight
    // counted loop the compiler can unroll instead of the bit-scan walk.
    if (active_ == kFullMask) {
      for (int lane = 0; lane < kWarpSize; ++lane) f(lane);
      return;
    }
    Mask m = active_;
    while (m) {
      const int lane = std::countr_zero(m);
      f(lane);
      m &= m - 1;
    }
  }

  void note_op() {
    ++stats_->vec_ops;
    stats_->active_lane_sum += static_cast<std::uint64_t>(active_lanes());
  }

  void begin_segments() { num_segments_ = 0; }

  void add_segment(std::uintptr_t address) {
    // 32-byte sectors: the granularity Kepler's L2 serves and the one
    // nvprof's gld_efficiency counts (the paper's Fig. 19a metric).
    const std::uintptr_t seg = address >> 5;
    // Coalesced lane addresses revisit the sector just inserted, so check
    // it before the linear scan.
    if (num_segments_ > 0 &&
        segments_[static_cast<std::size_t>(num_segments_ - 1)] == seg)
      return;
    for (int i = 0; i < num_segments_ - 1; ++i)
      if (segments_[static_cast<std::size_t>(i)] == seg) return;
    segments_[static_cast<std::size_t>(num_segments_++)] = seg;
  }

  void commit_load_segments(MemKind kind) {
    for (int i = 0; i < num_segments_; ++i) {
      if (kind == MemKind::kReadOnly && rocache_ != nullptr) {
        if (rocache_->access(segments_[static_cast<std::size_t>(i)] << 5)) {
          ++stats_->rocache_hits;
          continue;  // served by the read-only cache: no global transaction
        }
        ++stats_->rocache_misses;
      }
      ++stats_->ld_transactions;
    }
  }

  /// kGlobal selects the global-memory flavour: the update is a relaxed
  /// std::atomic_ref fetch-add (cross-block safe under the SM-sharded
  /// engine) and the touched 32-byte sectors are tracked. Shared memory is
  /// private to a block — and each block runs on exactly one worker — so
  /// the plain read-modify-write stays.
  template <bool kGlobal, class T, class I>
  std::uint64_t do_atomic_add(T* base, const LaneArray<I>& idx,
                              const LaneArray<T>& vals, LaneArray<T>& old) {
    // Commit in lane order; count the worst per-address collision depth.
    std::array<T*, kWarpSize> addrs{};
    int n = 0;
    for_active([&](int lane) {
      T* p = base + idx[static_cast<std::size_t>(lane)];
      if constexpr (kGlobal) {
        static_assert(std::is_integral_v<T>,
                      "atomic_add_global requires an integral counter type");
        old[static_cast<std::size_t>(lane)] =
            std::atomic_ref<T>(*p).fetch_add(
                vals[static_cast<std::size_t>(lane)],
                std::memory_order_relaxed);
      } else {
        old[static_cast<std::size_t>(lane)] = *p;
        *p += vals[static_cast<std::size_t>(lane)];
      }
      addrs[static_cast<std::size_t>(n++)] = p;
      if constexpr (kGlobal) {
        stats_->st_bytes_requested += sizeof(T);
        add_segment(reinterpret_cast<std::uintptr_t>(p));
      }
    });
    std::uint64_t worst = 0;
    for (int i = 0; i < n; ++i) {
      std::uint64_t count = 0;
      for (int j = 0; j < n; ++j)
        if (addrs[static_cast<std::size_t>(j)] ==
            addrs[static_cast<std::size_t>(i)])
          ++count;
      worst = std::max(worst, count);
    }
    return worst;
  }

  KernelStats* stats_;
  ReadOnlyCache* rocache_;
  int block_id_;
  int warp_in_block_;
  int warps_per_block_;
  int grid_blocks_;
  BlockChecker* check_;
  Mask active_ = kFullMask;

  std::array<std::uintptr_t, kWarpSize> segments_{};
  int num_segments_ = 0;
};

}  // namespace repro::simt
