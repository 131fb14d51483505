#include "core/kernels.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

#include "core/extension_internal.hpp"
#include "core/lane_extend.hpp"
#include "core/scoring.hpp"
#include "gpualgo/scan.hpp"
#include "gpualgo/segsort.hpp"
#include "simt/occupancy.hpp"
#include "util/fault.hpp"

namespace repro::core {

namespace {

using simt::BlockCtx;
using simt::LaneArray;
using simt::Mask;
using simt::WarpExec;

constexpr int kWordLength = 3;  // the kernels are specialized for W = 3

/// Key identifying a (sequence, diagonal) segment inside a sorted bin.
constexpr std::uint64_t segment_key(std::uint64_t packed) {
  return packed >> 16;
}

}  // namespace

// --------------------------------------------------------------------------
// K1: hit detection with binning (Algorithm 2)
// --------------------------------------------------------------------------

DetectionResult launch_hit_detection(simt::Engine& engine,
                                     const Config& config,
                                     const QueryDevice& query,
                                     const BlockDevice& block, BinGrid& bins,
                                     SurvivorView survivors) {
  const int num_bins = bins.num_bins;
  if (num_bins <= 0 || (num_bins & (num_bins - 1)) != 0 ||
      num_bins > kDiagonalBias)
    throw std::invalid_argument(
        "hit detection: num_bins_per_warp must be a power of two <= 32768");
  if (config.params.word_length != kWordLength)
    throw std::invalid_argument("hit detection kernel requires W == 3");
  bins.clear();

  const simt::MemKind position_kind = config.use_readonly_cache
                                          ? simt::MemKind::kReadOnly
                                          : simt::MemKind::kGlobal;
  const auto capacity = bins.capacity;

  simt::LaunchConfig cfg;
  cfg.name = kKernelDetection;
  cfg.grid_blocks = config.detection_blocks;
  cfg.block_threads = config.detection_block_threads;
  cfg.regs_per_thread = 40;

  engine.launch(cfg, [&](BlockCtx& ctx) {
    const int warps_per_block = ctx.warps_per_block();
    // alloc_zeroed: the per-bin cursors must start at zero (lanes atomically
    // claim slots from them with no prior store) — on hardware this is the
    // cooperative memset a CUDA port has to emit before the scan loop.
    auto top = ctx.shared().alloc_zeroed<std::uint32_t>(
        static_cast<std::size_t>(warps_per_block) *
        static_cast<std::size_t>(num_bins));
    auto presence = ctx.shared().alloc<std::uint32_t>(
        query.presence_bitmap.size());

    // Prologue: cooperative copy of the DFA presence structure into shared
    // memory (the fixed, small "DFA states" part of hierarchical buffering).
    ctx.par([&](WarpExec& w) {
      const auto n = static_cast<std::uint32_t>(presence.size());
      const auto stride =
          static_cast<std::uint32_t>(w.warps_per_block()) * 32;
      LaneArray<std::uint32_t> idx{};
      w.vec([&](int lane) {
        idx[lane] = static_cast<std::uint32_t>(w.warp_in_block()) * 32 +
                    static_cast<std::uint32_t>(lane);
      });
      w.loop_while([&](int lane) { return idx[lane] < n; }, [&] {
        LaneArray<std::uint32_t> vals{};
        w.gather(query.presence_bitmap.data(), idx, vals);
        w.sh_scatter<std::uint32_t, std::uint32_t>(presence, idx, vals);
        w.vec([&](int lane) { idx[lane] += stride; });
      });
    });

    // Main loop: warp per sequence, lane per word position.
    ctx.par([&](WarpExec& w) {
      const auto total_warps = static_cast<std::uint32_t>(w.num_warps_total());
      const auto gw = static_cast<std::uint32_t>(w.global_warp_id());
      const std::uint32_t top_base =
          static_cast<std::uint32_t>(w.warp_in_block()) *
          static_cast<std::uint32_t>(num_bins);
      const std::uint64_t warp_bin_base =
          static_cast<std::uint64_t>(gw) * static_cast<std::uint64_t>(num_bins);

      const std::uint32_t num_items =
          survivors.ids != nullptr ? survivors.count : block.num_seqs;
      for (std::uint32_t item = gw; item < num_items; item += total_warps) {
        std::uint32_t seq = item;
        if (survivors.ids != nullptr) {
          // Warp-uniform indirection through the survivor list.
          LaneArray<std::uint32_t> vidx{};
          LaneArray<std::uint32_t> vval{};
          w.vec([&](int lane) { vidx[lane] = item; });
          w.gather(survivors.ids, vidx, vval);
          seq = vval[0];
        }
        // Warp-uniform loads of the sequence extent (broadcast access).
        LaneArray<std::uint32_t> uidx{};
        LaneArray<std::uint32_t> lo{};
        LaneArray<std::uint32_t> hi{};
        w.vec([&](int lane) { uidx[lane] = seq; });
        w.gather(block.offsets.data(), uidx, lo);
        w.vec([&](int lane) { uidx[lane] = seq + 1; });
        w.gather(block.offsets.data(), uidx, hi);
        const std::uint32_t seq_off = lo[0];
        const std::uint32_t seq_len = hi[0] - lo[0];
        if (seq_len < kWordLength) continue;
        const std::uint32_t num_words = seq_len - kWordLength + 1;

        for (std::uint32_t j0 = 0; j0 < num_words; j0 += 32) {
          LaneArray<std::uint32_t> j{};
          w.vec([&](int lane) {
            j[lane] = j0 + static_cast<std::uint32_t>(lane);
          });
          w.if_then(
              [&](int lane) { return j[lane] < num_words; },
              [&] {
                // Load the word's three residues (coalesced).
                LaneArray<std::uint32_t> sidx{};
                LaneArray<std::uint8_t> c0{}, c1{}, c2{};
                w.vec([&](int lane) { sidx[lane] = seq_off + j[lane]; });
                w.gather(block.residues.data(), sidx, c0);
                w.vec([&](int lane) { ++sidx[lane]; });
                w.gather(block.residues.data(), sidx, c1);
                w.vec([&](int lane) { ++sidx[lane]; });
                w.gather(block.residues.data(), sidx, c2);

                LaneArray<std::uint32_t> word{};
                w.vec([&](int lane) {
                  word[lane] =
                      (static_cast<std::uint32_t>(c0[lane]) *
                           bio::kAlphabetSize +
                       c1[lane]) *
                          bio::kAlphabetSize +
                      c2[lane];
                });

                // Probe the shared-memory presence structure.
                LaneArray<std::uint32_t> bitword{};
                LaneArray<std::uint32_t> bidx{};
                w.vec([&](int lane) { bidx[lane] = word[lane] / 32; });
                w.sh_gather<std::uint32_t, std::uint32_t>(presence, bidx,
                                                          bitword);
                LaneArray<std::uint8_t> present{};
                w.vec([&](int lane) {
                  present[lane] = static_cast<std::uint8_t>(
                      (bitword[lane] >> (word[lane] % 32)) & 1u);
                });

                w.if_then(
                    [&](int lane) { return present[lane] != 0; },
                    [&] {
                      // Query positions via the read-only-cached DFA lists.
                      LaneArray<std::uint32_t> start{}, stop{};
                      w.gather(query.word_offsets.data(), word, start,
                               position_kind);
                      LaneArray<std::uint32_t> word1{};
                      w.vec([&](int lane) { word1[lane] = word[lane] + 1; });
                      w.gather(query.word_offsets.data(), word1, stop,
                               position_kind);

                      LaneArray<std::uint32_t> cursor = start;
                      w.loop_while(
                          [&](int lane) {
                            return cursor[lane] < stop[lane];
                          },
                          [&] {
                            LaneArray<std::uint32_t> qpos{};
                            w.gather(query.word_positions.data(), cursor,
                                     qpos, position_kind);

                            LaneArray<std::uint32_t> bin{};
                            LaneArray<std::uint64_t> packed{};
                            w.vec([&](int lane) {
                              const std::int32_t diag =
                                  static_cast<std::int32_t>(j[lane]) -
                                  static_cast<std::int32_t>(qpos[lane]);
                              bin[lane] = static_cast<std::uint32_t>(
                                  (diag + kDiagonalBias) & (num_bins - 1));
                              packed[lane] = pack_hit(seq, diag, j[lane]);
                            });

                            // Claim a slot via the shared top[] counters.
                            LaneArray<std::uint32_t> tidx{};
                            LaneArray<std::uint32_t> ones{};
                            LaneArray<std::uint32_t> old{};
                            w.vec([&](int lane) {
                              tidx[lane] = top_base + bin[lane];
                              ones[lane] = 1;
                            });
                            w.atomic_add_shared(top, tidx, ones, old);

                            w.if_then_else(
                                [&](int lane) { return old[lane] < capacity; },
                                [&] {
                                  LaneArray<std::uint64_t> slot{};
                                  w.vec([&](int lane) {
                                    slot[lane] =
                                        (warp_bin_base + bin[lane]) *
                                            capacity +
                                        old[lane];
                                  });
                                  w.scatter(bins.slots.data(), slot, packed);
                                },
                                [&] {
                                  LaneArray<std::uint32_t> zero{};
                                  LaneArray<std::uint32_t> one{};
                                  LaneArray<std::uint32_t> prev{};
                                  w.vec([&](int lane) { one[lane] = 1; });
                                  w.atomic_add_global(bins.overflow.data(),
                                                      zero, one, prev);
                                });

                            w.vec([&](int lane) { ++cursor[lane]; });
                          });
                    });
              });
        }
      }

      // Epilogue: flush this warp's shared top[] into the global counters.
      LaneArray<std::uint32_t> b{};
      w.vec([&](int lane) { b[lane] = static_cast<std::uint32_t>(lane); });
      w.loop_while(
          [&](int lane) {
            return b[lane] < static_cast<std::uint32_t>(num_bins);
          },
          [&] {
            LaneArray<std::uint32_t> tidx{};
            LaneArray<std::uint32_t> val{};
            LaneArray<std::uint32_t> gidx{};
            w.vec([&](int lane) { tidx[lane] = top_base + b[lane]; });
            w.sh_gather<std::uint32_t, std::uint32_t>(top, tidx, val);
            w.vec([&](int lane) {
              gidx[lane] = static_cast<std::uint32_t>(warp_bin_base) + b[lane];
            });
            w.scatter(bins.counts.data(), gidx, val);
            w.vec([&](int lane) { b[lane] += 32; });
          });
    });
  });

  DetectionResult result;
  // "core.bin_overflow" forces the overflow path even when the bins held,
  // exercising the capacity-growth ladder on schedules of any density.
  const bool forced_overflow = util::fault_point("core.bin_overflow");
  result.overflowed = bins.overflowed() || forced_overflow;
  for (const auto count : bins.counts)
    result.total_hits += std::min<std::uint32_t>(count, bins.capacity);
  return result;
}

// --------------------------------------------------------------------------
// K2: hit assembling
// --------------------------------------------------------------------------

namespace {

/// The K2-K4 launch shape: one warp per bin, grid-stride over 128-thread
/// blocks. Bin extents are read host-side, warp-uniform.
simt::LaunchConfig warp_per_bin_launch(const simt::Engine& engine,
                                       const char* name,
                                       std::size_t total_bins,
                                       int regs_per_thread) {
  simt::LaunchConfig cfg;
  cfg.name = name;
  cfg.block_threads = 128;
  cfg.grid_blocks =
      simt::grid_stride_blocks(engine.spec(), total_bins, cfg.block_threads);
  cfg.regs_per_thread = regs_per_thread;
  return cfg;
}

}  // namespace

AssembledBins launch_assemble(simt::Engine& engine, const BinGrid& bins) {
  const std::size_t total_bins = bins.total_bins();

  AssembledBins out;
  out.counts.reserve(total_bins);
  for (std::size_t b = 0; b < total_bins; ++b)
    out.counts.push_back(std::min(bins.counts[b], bins.capacity));
  out.offsets =
      gpualgo::exclusive_scan_device(engine, out.counts, kKernelScan);
  out.hits.resize(out.offsets.back());

  const simt::LaunchConfig cfg =
      warp_per_bin_launch(engine, kKernelAssemble, total_bins, 16);
  engine.launch(cfg, [&](BlockCtx& ctx) {
    ctx.par([&](WarpExec& w) {
      const auto stride = static_cast<std::size_t>(w.num_warps_total());
      for (auto b = static_cast<std::size_t>(w.global_warp_id());
           b < total_bins; b += stride) {
        const std::uint32_t n = out.counts[b];
        if (n == 0) continue;
        const std::uint64_t src_base = b * bins.capacity;
        const std::uint32_t dst_base = out.offsets[b];
        LaneArray<std::uint32_t> i{};
        w.vec([&](int lane) { i[lane] = static_cast<std::uint32_t>(lane); });
        w.loop_while([&](int lane) { return i[lane] < n; }, [&] {
          LaneArray<std::uint64_t> src{};
          LaneArray<std::uint32_t> dst{};
          LaneArray<std::uint64_t> v{};
          w.vec([&](int lane) {
            src[lane] = src_base + i[lane];
            dst[lane] = dst_base + i[lane];
          });
          w.gather(bins.slots.data(), src, v);
          w.scatter(out.hits.data(), dst, v);
          w.vec([&](int lane) { i[lane] += 32; });
        });
      }
    });
  });

  for (const auto count : out.counts) out.total_hits += count;
  return out;
}

// --------------------------------------------------------------------------
// K3: hit sorting
// --------------------------------------------------------------------------

void launch_sort(simt::Engine& engine, AssembledBins& assembled) {
  gpualgo::segmented_sort_u64(engine, assembled.hits, assembled.offsets,
                              kKernelSort);
}

// --------------------------------------------------------------------------
// K4: hit filtering + segment indexing
// --------------------------------------------------------------------------

namespace {

/// Walks one warp over n sorted hits at hits[base..], 32 per chunk. Lane j
/// of a chunk holds hit i = i0 + j (lanes past n hold i >= n) and reaches
/// its left neighbour through left_of(lane): shfl_up, and for lane 0 the
/// previous chunk's lane 31. visit(i, cur, left_of) decides and writes.
template <class Visit>
void walk_sorted(WarpExec& w, const std::uint64_t* hits, std::uint32_t base,
                 std::uint32_t n, Visit&& visit) {
  LaneArray<std::uint64_t> cur{};
  for (std::uint32_t i0 = 0; i0 < n; i0 += 32) {
    LaneArray<std::uint64_t> carry = cur;
    if (i0 > 0) w.shfl_xor(carry, 31);  // lane 31 -> lane 0
    LaneArray<std::uint32_t> i{};
    LaneArray<std::uint32_t> idx{};
    w.vec([&](int lane) {
      i[lane] = i0 + static_cast<std::uint32_t>(lane);
      idx[lane] = base + i[lane];
    });
    if (i0 + 32 <= n)
      w.gather(hits, idx, cur);
    else
      w.if_then([&](int lane) { return i[lane] < n; },
                [&] { w.gather(hits, idx, cur); });
    LaneArray<std::uint64_t> left = cur;
    w.shfl_up(left, 1);
    visit(i, cur, [&](int lane) { return lane == 0 ? carry[0] : left[lane]; });
  }
}

/// The lanes set in `mask` store vals to out[base + their rank in mask].
template <class T>
void scatter_ranked(WarpExec& w, Mask mask, std::uint32_t base, T* out,
                    const LaneArray<T>& vals) {
  w.if_then([&](int lane) { return ((mask >> lane) & 1u) != 0; }, [&] {
    LaneArray<std::uint32_t> dst{};
    w.vec([&](int lane) { dst[lane] = base + simt::rank_below(mask, lane); });
    w.scatter(out, dst, vals);
  });
}

}  // namespace

FilteredBins launch_filter(simt::Engine& engine, const Config& config,
                           const AssembledBins& assembled) {
  const std::size_t total_bins = assembled.counts.size();
  const auto window =
      static_cast<std::uint32_t>(config.params.two_hit_window);
  const bool one_hit = config.params.one_hit;
  const simt::LaunchConfig cfg =
      warp_per_bin_launch(engine, kKernelFilter, total_bins, 24);

  // Per bin: survivors in the low word, segments in the high word, scanned
  // together. Zeroed up front (cudaMemset), so bins without survivors
  // write nothing.
  simt::DeviceVector<std::uint64_t> counts(total_bins, 0);
  // Survivors compacted within their own bin's assembled region.
  simt::DeviceVector<std::uint64_t> staged(assembled.hits.size());

  // Pass 1: the two-hit filter (paper Fig. 6c): a hit survives iff its left
  // neighbour is on the same (seq, diagonal) and within the window. A
  // survivor starts a segment iff its key differs from the previous
  // survivor's — the nearest kept lane below it, or for the chunk's first
  // survivor the last one of earlier chunks, which lane 31 carries.
  engine.launch(cfg, [&](BlockCtx& ctx) {
    ctx.par([&](WarpExec& w) {
      const auto stride = static_cast<std::size_t>(w.num_warps_total());
      for (auto b = static_cast<std::size_t>(w.global_warp_id());
           b < total_bins; b += stride) {
        const std::uint32_t n = assembled.counts[b];
        const std::uint32_t base = assembled.offsets[b];
        std::uint32_t kept_total = 0;
        std::uint32_t segs = 0;
        LaneArray<std::uint64_t> tail{};
        walk_sorted(w, assembled.hits.data(), base, n,
                    [&](const LaneArray<std::uint32_t>& i,
                        const LaneArray<std::uint64_t>& cur, auto&& left_of) {
          LaneArray<std::uint8_t> take{};
          w.vec([&](int lane) {
            const std::uint64_t left = left_of(lane);
            const bool paired =
                i[lane] > 0 && segment_key(cur[lane]) == segment_key(left) &&
                hit_spos(cur[lane]) - hit_spos(left) <= window;
            take[lane] = i[lane] < n && (one_hit || paired) ? 1 : 0;
          });
          const Mask kept = w.ballot([&](int lane) { return take[lane] != 0; });
          if (kept == 0) return;

          LaneArray<int> src{};
          LaneArray<std::uint64_t> prev{};
          w.vec([&](int lane) {
            const Mask below = kept & ((Mask{1} << lane) - 1u);
            src[lane] = below != 0 ? 31 - std::countl_zero(below) : 31;
            prev[lane] = lane == 31 ? tail[lane] : cur[lane];
          });
          w.shfl(prev, src);
          const Mask starts = w.ballot([&](int lane) {
            if (((kept >> lane) & 1u) == 0) return false;
            const bool first =
                kept_total == 0 && simt::rank_below(kept, lane) == 0;
            return first || segment_key(cur[lane]) != segment_key(prev[lane]);
          });
          // Lane 31 carries the chunk's last survivor to the next chunk.
          w.vec([&](int lane) {
            tail[lane] = (kept >> 31) != 0 ? cur[lane] : prev[lane];
          });
          scatter_ranked(w, kept, base + kept_total, staged.data(), cur);
          kept_total += static_cast<std::uint32_t>(std::popcount(kept));
          segs += static_cast<std::uint32_t>(std::popcount(starts));
        });
        if (kept_total == 0) continue;
        w.if_then([](int lane) { return lane == 0; }, [&] {
          LaneArray<std::uint32_t> cidx{};
          LaneArray<std::uint64_t> cval{};
          w.vec([&](int lane) {
            cidx[lane] = static_cast<std::uint32_t>(b);
            cval[lane] = std::uint64_t{segs} << 32 | kept_total;
          });
          w.scatter(counts.data(), cidx, cval);
        });
      }
    });
  });

  // Where each bin's survivors (low word) and segments (high word) start
  // in the flat list.
  const std::vector<std::uint64_t> bases =
      gpualgo::exclusive_scan_device(engine, counts, kKernelFilter);
  FilteredBins out;
  out.num_bins = total_bins;
  out.total_survivors = bases[total_bins] & 0xffffffffu;
  out.total_segments = bases[total_bins] >> 32;
  out.hits.resize(out.total_survivors);
  // Every entry starts as the sentinel (cuMemsetD32); pass 2 overwrites all
  // but the last.
  out.segments.assign(out.total_segments + 1,
                      static_cast<std::uint32_t>(out.total_survivors));

  // Pass 2: copy each bin's survivors into the compact array and index the
  // segments — a survivor whose left neighbour among the survivors has
  // another key starts one.
  engine.launch(cfg, [&](BlockCtx& ctx) {
    ctx.par([&](WarpExec& w) {
      const auto stride = static_cast<std::size_t>(w.num_warps_total());
      for (auto b = static_cast<std::size_t>(w.global_warp_id());
           b < total_bins; b += stride) {
        const auto hit_base = static_cast<std::uint32_t>(bases[b]);
        const auto n = static_cast<std::uint32_t>(bases[b + 1]) - hit_base;
        const auto seg_base = static_cast<std::uint32_t>(bases[b] >> 32);
        std::uint32_t segs = 0;
        walk_sorted(w, staged.data(), assembled.offsets[b], n,
                    [&](const LaneArray<std::uint32_t>& i,
                        const LaneArray<std::uint64_t>& cur, auto&& left_of) {
          LaneArray<std::uint32_t> dst{};
          LaneArray<std::uint8_t> take{};
          w.vec([&](int lane) {
            dst[lane] = hit_base + i[lane];
            const bool first = i[lane] == 0 || segment_key(cur[lane]) !=
                                                   segment_key(left_of(lane));
            take[lane] = i[lane] < n && first ? 1 : 0;
          });
          if (i[0] + 32 <= n)
            w.scatter(out.hits.data(), dst, cur);
          else
            w.if_then([&](int lane) { return i[lane] < n; },
                      [&] { w.scatter(out.hits.data(), dst, cur); });
          const Mask starts =
              w.ballot([&](int lane) { return take[lane] != 0; });
          if (starts == 0) return;
          scatter_ranked(w, starts, seg_base + segs, out.segments.data(), dst);
          segs += static_cast<std::uint32_t>(std::popcount(starts));
        });
      }
    });
  });
  return out;
}

// --------------------------------------------------------------------------
// K5: ungapped extension (three strategies)
// --------------------------------------------------------------------------

namespace {

using detail::emit_records;
using detail::ExtensionRecords;
using detail::fetch_hits;
using detail::LaneHits;
using detail::load_uniform;
using detail::warp_slice;
using detail::WarpRecords;
using detail::WorkSlice;

}  // namespace

ExtensionResult launch_extension(simt::Engine& engine, const Config& config,
                                 const QueryDevice& query,
                                 const BlockDevice& block,
                                 const FilteredBins& filtered) {
  const auto cutoff = config.params.ungapped_cutoff;
  const bool is_hit_based = config.strategy == ExtensionStrategy::kHit;

  // One record slot per survivor.
  ExtensionRecords records(filtered.total_survivors);

  // Fixed grid, one warp per four bins up to 16 blocks (the shape of
  // Algorithms 3-5); the warps split the flat list between them.
  constexpr int kBlockThreads = 128;
  const int warps_per_block = kBlockThreads / 32;
  const int grid_blocks = std::max<int>(
      1, std::min<int>(16, static_cast<int>(
                               (filtered.num_bins +
                                static_cast<std::size_t>(warps_per_block) -
                                1) /
                               static_cast<std::size_t>(warps_per_block))));

  simt::LaunchConfig cfg;
  cfg.name = kKernelExtension;
  cfg.grid_blocks = grid_blocks;
  cfg.block_threads = kBlockThreads;
  cfg.regs_per_thread = 48;

  std::vector<WarpRecords> emitted(
      static_cast<std::size_t>(grid_blocks * warps_per_block));
  // Incremented from inside kernel lambdas; blocks may run on different
  // host workers, and relaxed additions commute, so the total is identical
  // for any worker count.
  std::atomic<std::uint64_t> extensions_run{0};

  if (config.strategy == ExtensionStrategy::kDiagonal || is_hit_based) {
    engine.launch(cfg, [&](BlockCtx& ctx) {
      const DeviceScoring scoring = DeviceScoring::setup(ctx, config, query);
      ctx.par([&](WarpExec& w) {
        WarpRecords& mine =
            emitted[static_cast<std::size_t>(w.global_warp_id())];
        if (is_hit_based) {
          // Algorithm 4: lane per survivor, extend everything, de-dup later.
          const WorkSlice slice = warp_slice(w, filtered.total_survivors);
          mine.base = slice.begin;
          LaneArray<std::uint32_t> i{};
          w.vec([&](int lane) {
            i[lane] = slice.begin + static_cast<std::uint32_t>(lane);
          });
          w.loop_while(
              [&](int lane) { return i[lane] < slice.end; },
              [&] {
                const LaneHits h = fetch_hits(w, filtered, block, i);
                LaneExtendIo io;
                w.vec([&](int lane) {
                  io.qpos[lane] = h.qpos[lane];
                  io.spos[lane] = h.spos[lane];
                  io.seq_off[lane] = h.seq_off[lane];
                  io.seq_len[lane] = h.seq_len[lane];
                });
                lane_extend_ungapped(w, scoring, block.residues.data(),
                                     query.query_length, config.params, io);
                extensions_run.fetch_add(
                    static_cast<std::uint64_t>(w.active_lanes()),
                    std::memory_order_relaxed);

                LaneArray<std::uint8_t> emit{};
                LaneArray<std::uint32_t> diag_biased{};
                w.vec([&](int lane) {
                  emit[lane] = 1;  // every record participates in de-dup
                  diag_biased[lane] = static_cast<std::uint32_t>(
                      h.diag[lane] + kDiagonalBias);
                });
                emit_records(w, records, mine, emit, h.seq, diag_biased,
                             h.spos, io.q_start, io.q_end, io.score);
                w.vec([&](int lane) { i[lane] += 32; });
              });
          return;
        }

        // Algorithm 3: lane per diagonal segment.
        const WorkSlice slice = warp_slice(w, filtered.total_segments);
        if (slice.begin == slice.end) return;
        mine.base = load_uniform(w, filtered.segments.data(), slice.begin);
        LaneArray<std::uint32_t> g{};
        w.vec([&](int lane) {
          g[lane] = slice.begin + static_cast<std::uint32_t>(lane);
        });
        w.loop_while(
            [&](int lane) { return g[lane] < slice.end; },
            [&] {
              LaneArray<std::uint32_t> k{};
              LaneArray<std::uint32_t> seg_end{};
              LaneArray<std::uint32_t> g1{};
              LaneArray<std::int32_t> ext_reach{};
              w.gather(filtered.segments.data(), g, k);
              w.vec([&](int lane) {
                g1[lane] = g[lane] + 1;
                ext_reach[lane] = -1;
              });
              w.gather(filtered.segments.data(), g1, seg_end);

              w.loop_while(
                  [&](int lane) { return k[lane] < seg_end[lane]; },
                  [&] {
                    const LaneHits h = fetch_hits(w, filtered, block, k);
                    w.if_then(
                        [&](int lane) {
                          return static_cast<std::int32_t>(h.spos[lane]) >
                                 ext_reach[lane];
                        },
                        [&] {
                          LaneExtendIo io;
                          w.vec([&](int lane) {
                            io.qpos[lane] = h.qpos[lane];
                            io.spos[lane] = h.spos[lane];
                            io.seq_off[lane] = h.seq_off[lane];
                            io.seq_len[lane] = h.seq_len[lane];
                          });
                          lane_extend_ungapped(
                              w, scoring, block.residues.data(),
                              query.query_length, config.params, io);
                          extensions_run.fetch_add(
                              static_cast<std::uint64_t>(w.active_lanes()),
                              std::memory_order_relaxed);

                          LaneArray<std::uint8_t> emit{};
                          LaneArray<std::uint32_t> diag_biased{};
                          w.vec([&](int lane) {
                            ext_reach[lane] = static_cast<std::int32_t>(
                                io.q_end[lane]) + h.diag[lane];
                            emit[lane] = io.score[lane] >= cutoff ? 1 : 0;
                            diag_biased[lane] = static_cast<std::uint32_t>(
                                h.diag[lane] + kDiagonalBias);
                          });
                          emit_records(w, records, mine, emit, h.seq,
                                       diag_biased, h.spos, io.q_start,
                                       io.q_end, io.score);
                        });
                    w.vec([&](int lane) { ++k[lane]; });
                  });
              w.vec([&](int lane) { g[lane] += 32; });
            });
      });
    });
  } else {
    // Algorithm 5: window-based extension (window_kernel.cpp).
    detail::run_window_extension_kernel(engine, config, query, block,
                                        filtered, cfg, records, emitted,
                                        extensions_run);
  }

  // Host-side collection (modeled as the D2H copy of the record buffer).
  ExtensionResult result;
  result.extensions_run = extensions_run.load(std::memory_order_relaxed);
  std::vector<std::tuple<std::uint64_t, blast::UngappedExtension>> staged;
  for (const WarpRecords& warp : emitted) {
    for (std::uint32_t slot = warp.base; slot < warp.base + warp.count;
         ++slot) {
      blast::UngappedExtension ext;
      ext.seq = records.seq[slot];
      ext.q_start = records.q_start[slot];
      ext.q_end = records.q_end[slot];
      const std::int32_t diag =
          static_cast<std::int32_t>(records.diag_biased[slot]) -
          kDiagonalBias;
      ext.s_start = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(ext.q_start) + diag);
      ext.s_end = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(ext.q_end) + diag);
      ext.score = records.score[slot];
      const std::uint64_t order_key =
          (static_cast<std::uint64_t>(ext.seq) << 32) |
          (static_cast<std::uint64_t>(records.diag_biased[slot]) << 16) |
          records.seed_spos[slot];
      staged.emplace_back(order_key, ext);
      result.records_d2h_bytes += records.bytes_per_record();
    }
  }
  std::sort(staged.begin(), staged.end());

  if (is_hit_based) {
    // De-duplication step of Algorithm 4: replay the coverage rule per
    // (seq, diagonal) over the seed order, exactly as the diagonal-based
    // kernel applies it inline.
    std::uint64_t current_group = ~0ULL;
    std::int64_t ext_reach = -1;
    for (const auto& [key, ext] : staged) {
      const std::uint64_t group = key >> 16;
      const auto seed_spos = static_cast<std::uint32_t>(key & 0xffff);
      if (group != current_group) {
        current_group = group;
        ext_reach = -1;
      }
      if (static_cast<std::int64_t>(seed_spos) <= ext_reach) continue;
      ext_reach = ext.s_end;
      if (ext.score >= cutoff) result.extensions.push_back(ext);
    }
  } else {
    result.extensions.reserve(staged.size());
    for (const auto& [key, ext] : staged) result.extensions.push_back(ext);
  }
  return result;
}

}  // namespace repro::core
