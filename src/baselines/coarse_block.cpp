#include "baselines/coarse_block.hpp"

#include <atomic>

#include "baselines/coarse_gpu.hpp"
#include "bio/alphabet.hpp"
#include "core/lane_extend.hpp"
#include "core/scoring.hpp"

namespace repro::baselines {

namespace {

using core::DeviceScoring;
using core::LaneExtendIo;
using core::lane_extend_ungapped;
using simt::BlockCtx;
using simt::LaneArray;
using simt::WarpExec;

constexpr std::uint32_t kNoSeq = 0xffffffffu;

/// Per-launch extension output (SoA) with per-block regions.
struct CoarseRecords {
  simt::DeviceVector<std::uint32_t> seq;
  simt::DeviceVector<std::uint32_t> q_start;
  simt::DeviceVector<std::uint32_t> q_end;
  simt::DeviceVector<std::int32_t> diag;
  simt::DeviceVector<std::int32_t> score;
  simt::DeviceVector<std::uint32_t> counts;    ///< per block
  simt::DeviceVector<std::uint32_t> overflow;  ///< single counter
  std::uint32_t capacity;

  CoarseRecords(int blocks, std::uint32_t cap)
      : seq(static_cast<std::size_t>(blocks) * cap),
        q_start(seq.size()),
        q_end(seq.size()),
        diag(seq.size()),
        score(seq.size()),
        counts(static_cast<std::size_t>(blocks)),
        // Zero-filled (the cudaMemset analogue): the kernel atomically
        // bumps the overflow counter without ever storing a baseline.
        overflow(1, 0),
        capacity(cap) {}
};

}  // namespace

CoarseBlockOutput run_coarse_block(simt::Engine& engine,
                                   const CoarseConfig& config,
                                   bool dynamic_queue,
                                   const core::QueryDevice& query,
                                   const core::BlockDevice& block,
                                   std::uint32_t output_capacity) {
  const auto& params = config.params;
  const std::uint32_t qlen = query.query_length;
  const auto window = static_cast<std::uint32_t>(params.two_hit_window);
  const std::uint32_t diag_span = qlen + block.max_seq_len + 2;
  const int total_threads = config.grid_blocks * config.block_threads;

  // Per-thread diagonal state in global memory ("each thread has its own
  // lasthit_arr", paper §3.1). Values are block-global subject positions
  // + 1, so the arrays never need per-sequence resets.
  simt::DeviceVector<std::uint32_t> lasthit(
      static_cast<std::size_t>(total_threads) * diag_span, 0);
  simt::DeviceVector<std::uint32_t> ext_reach(lasthit.size(), 0);
  simt::DeviceVector<std::uint32_t> ticket(1, 0);

  CoarseRecords records(config.grid_blocks, output_capacity);
  const DeviceScoring scoring = DeviceScoring::plain_global_pssm(query);

  // Host-captured counter: a real atomic, so the SM-sharded engine's
  // workers may bump it concurrently. It never touches KernelStats, so the
  // modeled metrics are identical whether or not anyone reads it.
  std::atomic<std::uint64_t> hits_detected{0};

  simt::LaunchConfig cfg;
  cfg.name = kCoarseKernel;
  cfg.grid_blocks = config.grid_blocks;
  cfg.block_threads = config.block_threads;
  cfg.regs_per_thread = 56;  // the fused kernel is register-hungry

  engine.launch(cfg, [&](BlockCtx& ctx) {
    // alloc_zeroed: the cursor is atomically bumped with no prior store —
    // the zero start is part of the kernel contract (a CUDA port memsets).
    auto block_cursor = ctx.shared().alloc_zeroed<std::uint32_t>(1);
    const std::uint32_t out_region =
        static_cast<std::uint32_t>(ctx.block_id()) * records.capacity;

    ctx.par([&](WarpExec& w) {
      LaneArray<std::uint32_t> seq{};
      LaneArray<std::uint32_t> seq_off{};
      LaneArray<std::uint32_t> nwords{};
      LaneArray<std::uint32_t> seq_len{};
      LaneArray<std::uint32_t> j{};
      LaneArray<std::uint8_t> fresh{};

      // Initial assignment.
      if (dynamic_queue) {
        LaneArray<std::uint32_t> zero{};
        LaneArray<std::uint32_t> one{};
        LaneArray<std::uint32_t> got{};
        w.vec([&](int lane) { one[lane] = 1; });
        w.atomic_add_global(ticket.data(), zero, one, got);
        w.vec([&](int lane) {
          seq[lane] = got[lane] < block.num_seqs ? got[lane] : kNoSeq;
          fresh[lane] = 1;
        });
      } else {
        w.vec([&](int lane) {
          const auto tid = static_cast<std::uint32_t>(w.thread_id(lane));
          seq[lane] = tid < block.num_seqs ? tid : kNoSeq;
          fresh[lane] = 1;
        });
      }

      auto advance = [&] {
        // Claim the next sequence for lanes whose sequence is finished.
        if (dynamic_queue) {
          LaneArray<std::uint32_t> zero{};
          LaneArray<std::uint32_t> one{};
          LaneArray<std::uint32_t> got{};
          w.vec([&](int lane) { one[lane] = 1; });
          w.atomic_add_global(ticket.data(), zero, one, got);
          w.vec([&](int lane) {
            seq[lane] = got[lane] < block.num_seqs ? got[lane] : kNoSeq;
            fresh[lane] = 1;
          });
        } else {
          w.vec([&](int lane) {
            const std::uint32_t next =
                seq[lane] + static_cast<std::uint32_t>(total_threads);
            seq[lane] = next < block.num_seqs ? next : kNoSeq;
            fresh[lane] = 1;
          });
        }
      };

      w.loop_while(
          [&](int lane) { return seq[lane] != kNoSeq; },
          [&] {
            // Load the extent of freshly-claimed sequences.
            w.if_then(
                [&](int lane) { return fresh[lane] != 0; },
                [&] {
                  LaneArray<std::uint32_t> lo{}, hi{}, idx1{};
                  w.gather(block.offsets.data(), seq, lo);
                  w.vec([&](int lane) { idx1[lane] = seq[lane] + 1; });
                  w.gather(block.offsets.data(), idx1, hi);
                  w.vec([&](int lane) {
                    seq_off[lane] = lo[lane];
                    seq_len[lane] = hi[lane] - lo[lane];
                    nwords[lane] = seq_len[lane] >= 3
                                       ? seq_len[lane] - 2
                                       : 0;
                    j[lane] = 0;
                    fresh[lane] = 0;
                  });
                });

            // Process word j of each lane's sequence.
            w.if_then(
                [&](int lane) { return j[lane] < nwords[lane]; },
                [&] {
                  LaneArray<std::uint32_t> sidx{};
                  LaneArray<std::uint8_t> c0{}, c1{}, c2{};
                  w.vec([&](int lane) {
                    sidx[lane] = seq_off[lane] + j[lane];
                  });
                  w.gather(block.residues.data(), sidx, c0);
                  w.vec([&](int lane) { ++sidx[lane]; });
                  w.gather(block.residues.data(), sidx, c1);
                  w.vec([&](int lane) { ++sidx[lane]; });
                  w.gather(block.residues.data(), sidx, c2);

                  LaneArray<std::uint32_t> word{};
                  LaneArray<std::uint32_t> start{}, stop{};
                  w.vec([&](int lane) {
                    word[lane] = (static_cast<std::uint32_t>(c0[lane]) *
                                      bio::kAlphabetSize +
                                  c1[lane]) *
                                     bio::kAlphabetSize +
                                 c2[lane];
                  });
                  // Plain global DFA loads: the coarse baselines predate
                  // the hierarchical buffering of §3.5.
                  w.gather(query.word_offsets.data(), word, start);
                  LaneArray<std::uint32_t> word1{};
                  w.vec([&](int lane) { word1[lane] = word[lane] + 1; });
                  w.gather(query.word_offsets.data(), word1, stop);

                  LaneArray<std::uint32_t> cursor = start;
                  w.loop_while(
                      [&](int lane) { return cursor[lane] < stop[lane]; },
                      [&] {
                        LaneArray<std::uint32_t> qpos{};
                        w.gather(query.word_positions.data(), cursor, qpos);
                        hits_detected.fetch_add(
                            static_cast<std::uint64_t>(w.active_lanes()),
                            std::memory_order_relaxed);

                        // Two-hit bookkeeping in the per-thread arrays.
                        LaneArray<std::uint32_t> slot{};
                        LaneArray<std::uint32_t> last{}, reach{};
                        LaneArray<std::uint32_t> gpos{};
                        w.vec([&](int lane) {
                          const std::uint32_t diag_idx =
                              j[lane] - qpos[lane] + qlen - 1;
                          slot[lane] = static_cast<std::uint32_t>(
                                           w.thread_id(lane)) *
                                           diag_span +
                                       diag_idx;
                          gpos[lane] = seq_off[lane] + j[lane];
                        });
                        w.gather(lasthit.data(), slot, last);
                        w.gather(ext_reach.data(), slot, reach);
                        // Update lasthit to this hit.
                        LaneArray<std::uint32_t> stored{};
                        w.vec([&](int lane) {
                          stored[lane] = gpos[lane] + 1;
                        });
                        w.scatter(lasthit.data(), slot, stored);

                        LaneArray<std::uint8_t> trigger{};
                        w.vec([&](int lane) {
                          const bool covered = reach[lane] > seq_off[lane] &&
                                               gpos[lane] + 1 <= reach[lane];
                          const bool paired =
                              params.one_hit ||
                              (last[lane] > seq_off[lane] &&
                               gpos[lane] + 1 - last[lane] <= window);
                          trigger[lane] = (!covered && paired) ? 1 : 0;
                        });

                        w.if_then(
                            [&](int lane) { return trigger[lane] != 0; },
                            [&] {
                              LaneExtendIo io;
                              w.vec([&](int lane) {
                                io.qpos[lane] = qpos[lane];
                                io.spos[lane] = j[lane];
                                io.seq_off[lane] = seq_off[lane];
                                io.seq_len[lane] = seq_len[lane];
                              });
                              lane_extend_ungapped(
                                  w, scoring, block.residues.data(), qlen,
                                  params, io);

                              // Record coverage.
                              LaneArray<std::uint32_t> new_reach{};
                              w.vec([&](int lane) {
                                const std::uint32_t s_end =
                                    io.q_end[lane] + j[lane] - qpos[lane];
                                new_reach[lane] =
                                    seq_off[lane] + s_end + 1;
                              });
                              w.scatter(ext_reach.data(), slot, new_reach);

                              // Emit qualifying extensions to the block's
                              // output region (shared-counter slots).
                              w.if_then(
                                  [&](int lane) {
                                    return io.score[lane] >=
                                           params.ungapped_cutoff;
                                  },
                                  [&] {
                                    LaneArray<std::uint32_t> zero{};
                                    LaneArray<std::uint32_t> one{};
                                    LaneArray<std::uint32_t> pos{};
                                    w.vec([&](int lane) { one[lane] = 1; });
                                    w.atomic_add_shared(block_cursor, zero,
                                                        one, pos);
                                    w.if_then_else(
                                        [&](int lane) {
                                          return pos[lane] <
                                                 records.capacity;
                                        },
                                        [&] {
                                          LaneArray<std::uint32_t> dst{};
                                          LaneArray<std::int32_t> dg{};
                                          LaneArray<std::int32_t> sc{};
                                          w.vec([&](int lane) {
                                            dst[lane] =
                                                out_region + pos[lane];
                                            dg[lane] =
                                                static_cast<std::int32_t>(
                                                    j[lane]) -
                                                static_cast<std::int32_t>(
                                                    qpos[lane]);
                                            sc[lane] = io.score[lane];
                                          });
                                          w.scatter(records.seq.data(), dst,
                                                    seq);
                                          w.scatter(records.q_start.data(),
                                                    dst, io.q_start);
                                          w.scatter(records.q_end.data(),
                                                    dst, io.q_end);
                                          w.scatter(records.diag.data(),
                                                    dst, dg);
                                          w.scatter(records.score.data(),
                                                    dst, sc);
                                        },
                                        [&] {
                                          LaneArray<std::uint32_t> zero2{};
                                          LaneArray<std::uint32_t> one2{};
                                          LaneArray<std::uint32_t> prev{};
                                          w.vec([&](int lane) {
                                            one2[lane] = 1;
                                          });
                                          w.atomic_add_global(
                                              records.overflow.data(),
                                              zero2, one2, prev);
                                        });
                                  });
                            });
                        w.vec([&](int lane) { ++cursor[lane]; });
                      });
                });

            // Advance: next word, or next sequence when done.
            w.vec([&](int lane) { ++j[lane]; });
            w.if_then([&](int lane) { return j[lane] >= nwords[lane]; },
                      advance);
          });
    });
    records.counts[static_cast<std::size_t>(ctx.block_id())] =
        block_cursor[0];
  });

  CoarseBlockOutput out;
  out.hits_detected = hits_detected.load(std::memory_order_relaxed);
  out.overflowed = records.overflow[0] != 0;
  if (out.overflowed) return out;
  for (int b = 0; b < config.grid_blocks; ++b) {
    const std::uint32_t n = records.counts[static_cast<std::size_t>(b)];
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint32_t slot =
          static_cast<std::uint32_t>(b) * records.capacity + r;
      blast::UngappedExtension ext;
      ext.seq = records.seq[slot];
      ext.q_start = records.q_start[slot];
      ext.q_end = records.q_end[slot];
      const std::int32_t diag = records.diag[slot];
      ext.s_start = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(ext.q_start) + diag);
      ext.s_end = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(ext.q_end) + diag);
      ext.score = records.score[slot];
      out.extensions.push_back(ext);
      out.d2h_bytes += 20;
    }
  }
  return out;
}

}  // namespace repro::baselines
