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
#include <cstring>
#include <span>
#include <stdexcept>
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

/// Set bits of a lane mask (__popc). The simulator counts lanes on every
/// warp step, and std::popcount compiles to a libgcc call unless the build
/// targets POPCNT, so the count is done inline.
[[nodiscard]] constexpr int lane_count(Mask mask) {
  mask -= (mask >> 1) & 0x55555555u;
  mask = (mask & 0x33333333u) + ((mask >> 2) & 0x33333333u);
  mask = (mask + (mask >> 4)) & 0x0f0f0f0fu;
  return static_cast<int>((mask * 0x01010101u) >> 24);
}

/// Set bits of mask below lane: a lane's exclusive rank among the lanes a
/// ballot selected (the __popc(mask & %lanemask_lt) idiom).
[[nodiscard]] inline std::uint32_t rank_below(Mask mask, int lane) {
  return static_cast<std::uint32_t>(
      lane_count(mask & ((Mask{1} << lane) - 1u)));
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
  // The counters are kept here and added to the launch's stats once, when
  // the warp's region ends.
  ~WarpExec() {
    stats_->vec_ops += vec_ops_;
    stats_->active_lane_sum += active_lane_sum_;
    stats_->ld_requests += mem_.ld_requests;
    stats_->ld_bytes_requested += mem_.ld_bytes_requested;
    stats_->ld_transactions += mem_.ld_transactions;
    stats_->st_requests += mem_.st_requests;
    stats_->st_bytes_requested += mem_.st_bytes_requested;
    stats_->st_transactions += mem_.st_transactions;
    stats_->rocache_hits += mem_.rocache_hits;
    stats_->rocache_misses += mem_.rocache_misses;
    stats_->shared_ops += mem_.shared_ops;
    stats_->shared_conflict_passes += mem_.shared_conflict_passes;
    stats_->atomic_ops += mem_.atomic_ops;
    stats_->atomic_serial_passes += mem_.atomic_serial_passes;
  }
  WarpExec(const WarpExec&) = delete;
  WarpExec& operator=(const WarpExec&) = delete;

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
  [[nodiscard]] int active_lanes() const { return active_lanes_; }
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
    // Branch-free: votes are data-dependent, so a branch per lane would
    // mispredict about as often as the predicate flips.
    if (active_ == kFullMask) {
      // One byte per vote, packed eight at a time: no lane waits on the
      // previous lane's bit.
      std::array<std::uint8_t, kWarpSize> votes;
      for (int lane = 0; lane < kWarpSize; ++lane)
        votes[static_cast<std::size_t>(lane)] =
            static_cast<std::uint8_t>(static_cast<bool>(pred(lane)));
      Mask m = 0;
      for (int first = 0; first < kWarpSize; first += 8)
        m |= pack_votes(votes.data() + first) << first;
      return m;
    }
    Mask m = 0;
    for_active([&](int lane) {
      m |= static_cast<Mask>(static_cast<bool>(pred(lane))) << lane;
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
      set_active(taken);
      then_fn();
      set_active(saved);
    }
  }

  /// Two-sided branch: both paths execute serially when both are non-empty
  /// (the SIMT serialization of Fig. 4).
  template <class P, class F, class G>
  void if_then_else(P&& pred, F&& then_fn, G&& else_fn) {
    const Mask taken = ballot(std::forward<P>(pred));
    const Mask saved = active_;
    if (taken) {
      set_active(taken);
      then_fn();
      set_active(saved);
    }
    const Mask not_taken = saved & ~taken;
    if (not_taken) {
      set_active(not_taken);
      else_fn();
      set_active(saved);
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
      set_active(live);
      body();
    }
    set_active(saved);
  }

  // --- global memory -------------------------------------------------------
  /// Gathers base[idx[lane]] for active lanes; counts one load request and
  /// the distinct 32-byte sectors it touches.
  template <class T, class I>
  void gather(const T* base, const LaneArray<I>& idx, LaneArray<T>& out,
              MemKind kind = MemKind::kGlobal) {
    if (check_ != nullptr) check_global(base, idx, AccessKind::kRead);
    note_op();
    ++mem_.ld_requests;
    mem_.ld_bytes_requested += active_bytes<T>();
    Sectors sectors;
    for_active([&](int lane) {
      const T* p = base + idx[static_cast<std::size_t>(lane)];
      out[static_cast<std::size_t>(lane)] = *p;
      sectors.add(reinterpret_cast<std::uintptr_t>(p));
    });
    commit_load_sectors(sectors, kind);
  }

  /// Scatters vals to base[idx[lane]]. Lane order is the commit order, so
  /// colliding lanes resolve deterministically (highest lane wins, matching
  /// one legal CUDA outcome).
  template <class T, class I>
  void scatter(T* base, const LaneArray<I>& idx, const LaneArray<T>& vals) {
    if (check_ != nullptr) check_global(base, idx, AccessKind::kWrite);
    note_op();
    ++mem_.st_requests;
    mem_.st_bytes_requested += active_bytes<T>();
    Sectors sectors;
    for_active([&](int lane) {
      T* p = base + idx[static_cast<std::size_t>(lane)];
      *p = vals[static_cast<std::size_t>(lane)];
      sectors.add(reinterpret_cast<std::uintptr_t>(p));
    });
    mem_.st_transactions += static_cast<std::uint64_t>(sectors.count);
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
    ++mem_.atomic_ops;
    mem_.st_bytes_requested += active_bytes<T>();
    Sectors sectors;
    std::uint64_t max_collisions =
        do_atomic_add<true>(base, idx, vals, old, &sectors);
    mem_.st_transactions += static_cast<std::uint64_t>(sectors.count);
    if (max_collisions > 1)
      mem_.atomic_serial_passes += max_collisions - 1;
  }

  // --- shared memory -------------------------------------------------------
  /// Shared-memory gather with bank-conflict accounting (32 banks of 4 B).
  template <class T, class I>
  void sh_gather(std::span<const T> region, const LaneArray<I>& idx,
                 LaneArray<T>& out) {
    if (check_ != nullptr)
      check_shared(region.data(), region.size(), idx, AccessKind::kRead);
    note_op();
    ++mem_.shared_ops;
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
    if (worst > 1) mem_.shared_conflict_passes += worst - 1;
  }

  template <class T, class I>
  void sh_scatter(std::span<T> region, const LaneArray<I>& idx,
                  const LaneArray<T>& vals) {
    if (check_ != nullptr)
      check_shared(region.data(), region.size(), idx, AccessKind::kWrite);
    note_op();
    ++mem_.shared_ops;
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
    if (worst > 1) mem_.shared_conflict_passes += worst - 1;
  }

  /// Atomic fetch-add on shared memory (paper Alg. 2's top[] counters):
  /// cheaper than global atomics but still serializes on collisions.
  template <class T, class I>
  void atomic_add_shared(std::span<T> region, const LaneArray<I>& idx,
                         const LaneArray<T>& vals, LaneArray<T>& old) {
    if (check_ != nullptr)
      check_shared(region.data(), region.size(), idx, AccessKind::kAtomic);
    note_op();
    ++mem_.shared_ops;
    ++mem_.atomic_ops;
    std::uint64_t max_collisions =
        do_atomic_add<false>(region.data(), idx, vals, old, nullptr);
    if (max_collisions > 1)
      mem_.atomic_serial_passes += max_collisions - 1;
  }

  // --- warp collectives ----------------------------------------------------
  // A windowed collective splits the warp into width-lane windows. As with
  // the CUDA intrinsics, width must be a power of two in [1, 32], so a
  // lane's offset in its window is lane & (width - 1) and its window starts
  // at lane & ~(width - 1).

  /// Inclusive plus-scan within fixed-width windows (CUB-style; the paper's
  /// window-based extension uses width 8). Charged log2(width) steps.
  template <class T>
  void window_inclusive_scan(LaneArray<T>& vals, int width) {
    const int offset_mask = window_mask(width);
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width,
                            "window_inclusive_scan");
    // Integer sums and maxima do not depend on the order they are taken
    // in, so the one-pass form below returns what the shuffle network does.
    if constexpr (std::is_integral_v<T>) {
      if (whole_windows(width)) {
        scan_whole_windows(vals, width,
                           [](const T& a, const T& b) { return a + b; });
        return;
      }
    }
    for (int delta = 1; delta < width; delta <<= 1) {
      note_op();
      LaneArray<T> prev = vals;
      for_active([&](int lane) {
        if ((lane & offset_mask) >= delta)
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
    const int offset_mask = window_mask(width);
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width,
                            "window_inclusive_max_scan");
    if constexpr (std::is_integral_v<T>) {
      if (whole_windows(width)) {
        scan_whole_windows(vals, width, [](const T& a, const T& b) {
          return std::max(a, b);
        });
        return;
      }
    }
    for (int delta = 1; delta < width; delta <<= 1) {
      note_op();
      LaneArray<T> prev = vals;
      for_active([&](int lane) {
        if ((lane & offset_mask) >= delta)
          vals[static_cast<std::size_t>(lane)] =
              std::max(vals[static_cast<std::size_t>(lane)],
                       prev[static_cast<std::size_t>(lane - delta)]);
      });
    }
  }

  /// Shuffle-up by delta within windows.
  template <class T>
  void shfl_up(LaneArray<T>& vals, int delta, int width = kWarpSize) {
    const int offset_mask = window_mask(width);
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width, "shfl_up");
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      if ((lane & offset_mask) >= delta)
        vals[static_cast<std::size_t>(lane)] =
            prev[static_cast<std::size_t>(lane - delta)];
    });
  }

  /// Indexed shuffle (__shfl_sync): lane i reads lane src[i] of its own
  /// width-lane window, src taken modulo width as on hardware (-1 reads the
  /// window's last lane). K4 takes each survivor's previous survivor from
  /// this, and the window extension broadcasts a window's total with it.
  template <class T>
  void shfl(LaneArray<T>& vals, const LaneArray<int>& src,
            int width = kWarpSize) {
    const int offset_mask = window_mask(width);
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width, "shfl");
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      const int from = (lane & ~offset_mask) |
                       (src[static_cast<std::size_t>(lane)] & offset_mask);
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
    const int offset_mask = window_mask(width);
    if (check_ != nullptr)
      check_->on_collective(warp_in_block_, active_, width, "shfl_xor");
    note_op();
    LaneArray<T> prev = vals;
    for_active([&](int lane) {
      const int src = lane ^ lane_mask;
      if (src < (lane & ~offset_mask) + width)
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

  /// width - 1, the mask of a lane's offset in its window. Throws unless
  /// width is a power of two in [1, 32].
  static int window_mask(int width) {
    if (width < 1 || width > kWarpSize || (width & (width - 1)) != 0)
      throw std::invalid_argument(
          "warp collective: width must be a power of two in [1, 32]");
    return width - 1;
  }

  /// True when every width-lane window is wholly active or wholly idle.
  [[nodiscard]] bool whole_windows(int width) const {
    if (active_ == kFullMask) return true;
    const std::uint64_t ones = (std::uint64_t{1} << width) - 1;
    // One bit at each window's first lane, widened to the whole window.
    const Mask firsts = active_ & static_cast<Mask>(kFullMask / ones);
    return static_cast<Mask>(firsts * ones) == active_;
  }

  /// A windowed inclusive scan under whole_windows(): one sequential pass
  /// per active window, charged as the log2(width) steps of the shuffle
  /// network it stands for.
  template <class T, class Op>
  void scan_whole_windows(LaneArray<T>& vals, int width, Op op) {
    const int steps = std::countr_zero(static_cast<unsigned>(width));
    vec_ops_ += static_cast<std::uint64_t>(steps);
    active_lane_sum_ += static_cast<std::uint64_t>(steps) *
                        static_cast<std::uint64_t>(active_lanes_);
    for (int first = 0; first < kWarpSize; first += width) {
      if (((active_ >> first) & 1u) == 0) continue;
      for (int lane = first + 1; lane < first + width; ++lane)
        vals[static_cast<std::size_t>(lane)] =
            op(vals[static_cast<std::size_t>(lane - 1)],
               vals[static_cast<std::size_t>(lane)]);
    }
  }

  /// Eight one-byte votes as the low eight bits of a mask, vote i at bit i.
  static Mask pack_votes(const std::uint8_t* votes) {
    static_assert(std::endian::native == std::endian::little);
    std::uint64_t eight = 0;
    std::memcpy(&eight, votes, sizeof(eight));
    // Vote i, at bit 8i, reaches bit 56 + i through the term 2^(56 - 7i);
    // no other product reaches bits 56..63 or carries into them.
    return static_cast<Mask>((eight * 0x0102040810204080ull) >> 56);
  }

  /// Bytes an access of one T per active lane requests.
  template <class T>
  [[nodiscard]] std::uint64_t active_bytes() const {
    return sizeof(T) * static_cast<std::uint64_t>(active_lanes());
  }

  /// Narrows or restores the active mask; every op reads the lane count.
  void set_active(Mask mask) {
    active_ = mask;
    active_lanes_ = lane_count(mask);
  }

  void note_op() {
    ++vec_ops_;
    active_lane_sum_ += static_cast<std::uint64_t>(active_lanes_);
  }

  /// The distinct 32-byte sectors one warp access touches (the
  /// granularity Kepler's L2 serves and the one nvprof's gld_efficiency
  /// counts, the paper's Fig. 19a metric), in order of first touch: the
  /// order the read-only cache is probed in. Each memory op keeps its own,
  /// so the compiler can hold the count and filter in registers.
  struct Sectors {
    // Not zero-filled: only list[0, count) is ever read.
    std::array<std::uintptr_t, kWarpSize> list;
    int count = 0;
    std::uint64_t filter = 0;  ///< one hashed bit per listed sector

    void add(std::uintptr_t address) {
      const std::uintptr_t sector = address >> 5;
      // Coalesced lanes revisit the sector just listed.
      if (count > 0 && list[static_cast<std::size_t>(count - 1)] == sector)
        return;
      // A clear filter bit proves the sector new; only a set bit pays for
      // the linear scan.
      const std::uint64_t bit = std::uint64_t{1}
                                << ((sector * 0x9e3779b97f4a7c15ull) >> 58);
      if ((filter & bit) != 0) {
        for (int i = 0; i < count - 1; ++i)
          if (list[static_cast<std::size_t>(i)] == sector) return;
      }
      filter |= bit;
      list[static_cast<std::size_t>(count++)] = sector;
    }
  };

  void commit_load_sectors(const Sectors& sectors, MemKind kind) {
    if (kind != MemKind::kReadOnly || rocache_ == nullptr) {
      mem_.ld_transactions += static_cast<std::uint64_t>(sectors.count);
      return;
    }
    for (int i = 0; i < sectors.count; ++i) {
      if (rocache_->access(sectors.list[static_cast<std::size_t>(i)] << 5)) {
        ++mem_.rocache_hits;
        continue;  // served by the read-only cache: no global transaction
      }
      ++mem_.rocache_misses;
      ++mem_.ld_transactions;
    }
  }

  /// kGlobal selects the global-memory flavour: the update is a relaxed
  /// std::atomic_ref fetch-add (cross-block safe under the SM-sharded
  /// engine) and the touched 32-byte sectors are tracked in `sectors`.
  /// Shared memory is private to a block — and each block runs on exactly
  /// one worker — so the plain read-modify-write stays.
  template <bool kGlobal, class T, class I>
  std::uint64_t do_atomic_add(T* base, const LaneArray<I>& idx,
                              const LaneArray<T>& vals, LaneArray<T>& old,
                              Sectors* sectors) {
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
      if constexpr (kGlobal) sectors->add(reinterpret_cast<std::uintptr_t>(p));
    });
    // A lane counts the later lanes on its address; the first lane of each
    // address counts them all.
    std::uint64_t worst = 0;
    for (int i = 0; i < n; ++i) {
      std::uint64_t count = 1;
      for (int j = i + 1; j < n; ++j)
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
  int active_lanes_ = kWarpSize;  ///< lane_count(active_)
  std::uint64_t vec_ops_ = 0;
  std::uint64_t active_lane_sum_ = 0;
  /// The memory, shared and atomic counters of KernelStats.
  struct MemCounters {
    std::uint64_t ld_requests = 0;
    std::uint64_t ld_bytes_requested = 0;
    std::uint64_t ld_transactions = 0;
    std::uint64_t st_requests = 0;
    std::uint64_t st_bytes_requested = 0;
    std::uint64_t st_transactions = 0;
    std::uint64_t rocache_hits = 0;
    std::uint64_t rocache_misses = 0;
    std::uint64_t shared_ops = 0;
    std::uint64_t shared_conflict_passes = 0;
    std::uint64_t atomic_ops = 0;
    std::uint64_t atomic_serial_passes = 0;
  } mem_;

};

}  // namespace repro::simt
