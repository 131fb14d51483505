// Algorithm 5: window-based ungapped extension (paper §3.4, Fig. 8/9d).
//
// A warp is divided into windows of `window_size` lanes; each window walks
// one (sequence, diagonal) segment and extends its hits cooperatively. Per
// round, the window's lanes score `window_size` consecutive positions, an
// inclusive plus-scan gives the running score (the CUB-style PrefixSum of
// Fig. 8) and an inclusive max-scan the running best. The rest of the
// round is two votes and two broadcasts, as a CUDA port does it with
// __ballot_sync, __ffs and __shfl_sync:
//
//  * a ballot of the DropFlags (ChangeSinceBest > X); the lowest set bit
//    of the window's slice is the first drop, the round's limit;
//  * a shfl of the running best from the limit lane: the best score up to
//    the limit, since the max-scan is monotone;
//  * a ballot of the lanes up to the limit that reach a new best; the
//    lowest set bit is the first such position, the offset the scalar
//    extension's strict `>` keeps;
//  * a shfl of the running score from the window's last lane, carried into
//    the next round.
//
// The two halves of an extension share one loop: a window runs its right
// half, and in the round after that half drops it starts its left half, so
// it never waits for the slowest right half of its warp. The result is
// bit-identical to the scalar x-drop extension (verified by tests).
//
// Each warp owns one contiguous slice of K4's flat segment list. A window
// whose segment ends claims the slice's next unclaimed segment (ballot +
// popcount rank on a warp-uniform cursor), so no window idles while its
// warp still has segments left.
#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "core/extension_internal.hpp"
#include "core/scoring.hpp"

namespace repro::core::detail {

namespace {

using simt::BlockCtx;
using simt::LaneArray;
using simt::Mask;
using simt::WarpExec;

constexpr int kBoundaryScore = -100000;  ///< forces a DropFlag at the edge

/// One half of the window-based extension.
struct WindowHalf {
  LaneArray<int> gain{};            ///< best accumulated gain
  LaneArray<std::uint32_t> off{};   ///< scalar-compatible best offset
};

enum : std::uint8_t { kRight = 0, kLeft = 1, kDone = 2 };

/// Extends every active window's hit to the right and then to the left, in
/// one loop. `right` and `left` map a lane and a half's offset to the
/// query position and residue index to score, and return false past the
/// sequence's edge. All inputs are window-uniform.
template <class RightMap, class LeftMap>
std::array<WindowHalf, 2> window_extend(WarpExec& w,
                                        const DeviceScoring& scoring,
                                        const std::uint8_t* residues,
                                        int ws, int xdrop, RightMap&& right,
                                        LeftMap&& left) {
  // A window's bits of a ballot; ws = 32 takes the full mask without a
  // shift by 32.
  const Mask slice = simt::kFullMask >> (simt::kWarpSize - ws);
  const auto window_bits = [&](Mask m, int lane) {
    return (m >> (lane - lane % ws)) & slice;
  };

  std::array<WindowHalf, 2> halves;
  LaneArray<std::uint8_t> dir{};  // kRight, kLeft, then kDone
  LaneArray<std::uint32_t> round{};
  LaneArray<int> carry_run{};
  LaneArray<int> carry_best{};
  LaneArray<std::uint32_t> best_off{};

  w.loop_while(
      [&](int lane) { return dir[lane] != kDone; },
      [&] {
        // Per-lane position of this round in the window's current half.
        LaneArray<std::uint32_t> qp{};
        LaneArray<std::uint32_t> sidx{};
        LaneArray<std::uint8_t> valid{};
        w.vec([&](int lane) {
          const std::uint32_t offset =
              round[lane] * static_cast<std::uint32_t>(ws) +
              static_cast<std::uint32_t>(lane % ws);
          valid[lane] = (dir[lane] == kRight
                             ? right(lane, offset, qp[lane], sidx[lane])
                             : left(lane, offset, qp[lane], sidx[lane]))
                            ? 1
                            : 0;
        });

        LaneArray<int> vals{};
        w.if_then_else(
            [&](int lane) { return valid[lane] != 0; },
            [&] {
              LaneArray<std::uint8_t> sres{};
              w.gather(residues, sidx, sres);
              scoring.score_step(w, qp, sres, vals);
            },
            [&] { w.vec([&](int lane) { vals[lane] = kBoundaryScore; }); });

        // PrefixSum (Fig. 8) with the carry from previous rounds, and the
        // running best; the carried best enters at the window's first lane.
        w.window_inclusive_scan(vals, ws);
        LaneArray<int> prefix{};
        LaneArray<int> best_up_to{};
        w.vec([&](int lane) {
          prefix[lane] = carry_run[lane] + vals[lane];
          best_up_to[lane] = lane % ws == 0
                                 ? std::max(carry_best[lane], prefix[lane])
                                 : prefix[lane];
        });
        w.window_inclusive_max_scan(best_up_to, ws);

        // First DropFlag of each window: the round's last position.
        const Mask drops = w.ballot([&](int lane) {
          return best_up_to[lane] - prefix[lane] > xdrop;
        });
        LaneArray<int> limit{};
        w.vec([&](int lane) {
          const Mask mine = window_bits(drops, lane);
          limit[lane] = mine != 0 ? std::countr_zero(mine) : ws - 1;
        });

        // Best score up to the limit, and the first position reaching it
        // if it beats the carried best.
        LaneArray<int> bounded = best_up_to;
        w.shfl(bounded, limit, ws);
        const Mask reach = w.ballot([&](int lane) {
          return lane % ws <= limit[lane] && prefix[lane] == bounded[lane] &&
                 bounded[lane] > carry_best[lane];
        });

        // Running score at the window's last lane, for the next round.
        LaneArray<int> carry_out = prefix;
        w.shfl(carry_out, ws - 1, ws);

        w.vec([&](int lane) {
          const Mask first_best = window_bits(reach, lane);
          if (first_best != 0) {
            carry_best[lane] = bounded[lane];
            best_off[lane] = round[lane] * static_cast<std::uint32_t>(ws) +
                             static_cast<std::uint32_t>(
                                 std::countr_zero(first_best));
          }
          if (window_bits(drops, lane) == 0) {
            carry_run[lane] = carry_out[lane];
            ++round[lane];
            return;
          }
          // The half dropped: record it and start the next one.
          WindowHalf& half = halves[dir[lane]];
          half.gain[lane] = carry_best[lane];
          half.off[lane] = best_off[lane];
          ++dir[lane];
          round[lane] = 0;
          carry_run[lane] = 0;
          carry_best[lane] = 0;
        });
      });
  return halves;
}

}  // namespace

void run_window_extension_kernel(simt::Engine& engine, const Config& config,
                                 const QueryDevice& query,
                                 const BlockDevice& block,
                                 const FilteredBins& filtered,
                                 const simt::LaunchConfig& cfg,
                                 ExtensionRecords& records,
                                 std::vector<WarpRecords>& emitted,
                                 std::atomic<std::uint64_t>& extensions_run) {
  const int ws = config.window_size;
  if (ws < 2 || ws > 32 || (ws & (ws - 1)) != 0)
    throw std::invalid_argument(
        "window extension: window_size must be a power of two in [2, 32]");
  // One bit per window: its first lane.
  Mask leaders = 0;
  for (int lane = 0; lane < 32; lane += ws) leaders |= Mask{1} << lane;

  const auto cutoff = config.params.ungapped_cutoff;
  const auto word = static_cast<std::uint32_t>(config.params.word_length);
  // The seed word is summed over the first `span` lanes of each window.
  const int span =
      std::min(ws, static_cast<int>(std::bit_ceil(std::max(word, 1u))));
  const int xdrop = config.params.ungapped_xdrop;
  const std::uint32_t qlen = query.query_length;

  engine.launch(cfg, [&](BlockCtx& ctx) {
    const DeviceScoring scoring = DeviceScoring::setup(ctx, config, query);
    ctx.par([&](WarpExec& w) {
      WarpRecords& mine = emitted[static_cast<std::size_t>(w.global_warp_id())];
      const WorkSlice slice = warp_slice(w, filtered.total_segments);
      if (slice.begin == slice.end) return;
      mine.base = load_uniform(w, filtered.segments.data(), slice.begin);

      // Window-uniform state: segment g, its next hit k and end, and how
      // far the window's last extension reached on the diagonal.
      LaneArray<std::uint32_t> g{};
      LaneArray<std::uint32_t> k{};
      LaneArray<std::uint32_t> seg_end{};
      LaneArray<std::int32_t> ext_reach{};
      std::uint32_t next = slice.begin;  // first unclaimed segment

      // Windows whose segment is done take the next unclaimed segments of
      // the slice, in window order; past the slice's end they retire.
      auto claim = [&] {
        const Mask need =
            w.ballot([&](int lane) { return k[lane] == seg_end[lane]; });
        if (need == 0) return;
        w.if_then([&](int lane) { return ((need >> lane) & 1u) != 0; }, [&] {
          w.vec([&](int lane) {
            g[lane] = next + simt::rank_below(need & leaders, lane - lane % ws);
          });
          w.if_then([&](int lane) { return g[lane] < slice.end; }, [&] {
            LaneArray<std::uint32_t> g1{};
            w.gather(filtered.segments.data(), g, k);
            w.vec([&](int lane) {
              g1[lane] = g[lane] + 1;
              ext_reach[lane] = -1;
            });
            w.gather(filtered.segments.data(), g1, seg_end);
          });
        });
        next += static_cast<std::uint32_t>(std::popcount(need & leaders));
      };

      claim();
      w.loop_while(
          [&](int lane) { return g[lane] < slice.end; },
          [&] {
            // Window-uniform hit fetch.
            const LaneHits h = fetch_hits(w, filtered, block, k);

            w.if_then(
                [&](int lane) {
                  return static_cast<std::int32_t>(h.spos[lane]) >
                         ext_reach[lane];
                },
                [&] {
                  // Seed-word score: lane j of a window scores word
                  // position j (then j + ws, ... while the word is longer
                  // than the window), and a window sum broadcasts the total.
                  LaneArray<int> word_score{};
                  for (std::uint32_t p0 = 0; p0 < word;
                       p0 += static_cast<std::uint32_t>(ws)) {
                    w.if_then(
                        [&](int lane) {
                          return p0 + static_cast<std::uint32_t>(lane % ws) <
                                 word;
                        },
                        [&] {
                          LaneArray<std::uint32_t> qp{}, sx{};
                          LaneArray<std::uint8_t> sres{};
                          w.vec([&](int lane) {
                            const std::uint32_t p =
                                p0 + static_cast<std::uint32_t>(lane % ws);
                            qp[lane] = h.qpos[lane] + p;
                            sx[lane] = h.seq_off[lane] + h.spos[lane] + p;
                          });
                          w.gather(block.residues.data(), sx, sres);
                          if (p0 == 0) {
                            scoring.score_step(w, qp, sres, word_score);
                          } else {
                            LaneArray<int> sc{};
                            scoring.score_step(w, qp, sres, sc);
                            w.vec([&](int lane) {
                              word_score[lane] += sc[lane];
                            });
                          }
                        });
                  }
                  w.window_inclusive_scan(word_score, span);
                  w.shfl(word_score, span - 1, ws);

                  // Right of the seed word, then left of it (paper Fig. 8),
                  // in one loop.
                  const std::array<WindowHalf, 2> halves = window_extend(
                      w, scoring, block.residues.data(), ws, xdrop,
                      [&](int lane, std::uint32_t offset, std::uint32_t& qp,
                          std::uint32_t& sx) {
                        const std::uint32_t q = h.qpos[lane] + word + offset;
                        const std::uint32_t s = h.spos[lane] + word + offset;
                        qp = q;
                        sx = h.seq_off[lane] + s;
                        return q < qlen && s < h.seq_len[lane];
                      },
                      [&](int lane, std::uint32_t offset, std::uint32_t& qp,
                          std::uint32_t& sx) {
                        const std::uint32_t dist = offset + 1;
                        const bool ok =
                            dist <= h.qpos[lane] && dist <= h.spos[lane];
                        qp = ok ? h.qpos[lane] - dist : 0;
                        sx = ok ? h.seq_off[lane] + h.spos[lane] - dist
                                : h.seq_off[lane];
                        return ok;
                      });
                  const WindowHalf& right = halves[kRight];
                  const WindowHalf& left = halves[kLeft];

                  extensions_run.fetch_add(
                      static_cast<std::uint64_t>(w.active_lanes() / ws),
                      std::memory_order_relaxed);

                  LaneArray<std::uint32_t> q_start{}, q_end{};
                  LaneArray<int> total{};
                  LaneArray<std::uint8_t> emit{};
                  LaneArray<std::uint32_t> diag_biased{};
                  w.vec([&](int lane) {
                    const std::uint32_t right_off =
                        right.gain[lane] > 0 ? right.off[lane] + 1 : 0;
                    const std::uint32_t left_off =
                        left.gain[lane] > 0 ? left.off[lane] + 1 : 0;
                    total[lane] =
                        word_score[lane] + right.gain[lane] + left.gain[lane];
                    q_start[lane] = h.qpos[lane] - left_off;
                    q_end[lane] = h.qpos[lane] + word - 1 + right_off;
                    ext_reach[lane] =
                        static_cast<std::int32_t>(q_end[lane]) + h.diag[lane];
                    emit[lane] =
                        (lane % ws == 0 && total[lane] >= cutoff) ? 1 : 0;
                    diag_biased[lane] = static_cast<std::uint32_t>(
                        h.diag[lane] + kDiagonalBias);
                  });
                  emit_records(w, records, mine, emit, h.seq, diag_biased,
                               h.spos, q_start, q_end, total);
                });
            w.vec([&](int lane) { ++k[lane]; });
            claim();
          });
    });
  });
}

}  // namespace repro::core::detail
