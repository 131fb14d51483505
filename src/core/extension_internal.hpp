// Internals shared by the ungapped-extension kernels (kernels.cpp and
// window_kernel.cpp). Not part of the public API.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/bins.hpp"
#include "core/config.hpp"
#include "core/device_data.hpp"
#include "core/kernels.hpp"
#include "simt/engine.hpp"

namespace repro::core::detail {

/// Device-side extension record (SoA), one slot per surviving hit.
struct ExtensionRecords {
  simt::DeviceVector<std::uint32_t> seq;
  simt::DeviceVector<std::uint32_t> q_start;
  simt::DeviceVector<std::uint32_t> q_end;
  simt::DeviceVector<std::uint32_t> diag_biased;
  simt::DeviceVector<std::int32_t> score;
  simt::DeviceVector<std::uint32_t> seed_spos;

  explicit ExtensionRecords(std::size_t n)
      : seq(n), q_start(n), q_end(n), diag_biased(n), score(n),
        seed_spos(n) {}

  [[nodiscard]] static constexpr std::size_t bytes_per_record() { return 24; }
};

/// One warp's contiguous share [begin, end) of a flat list of n items: the
/// grid's warps split the list evenly, in warp order.
struct WorkSlice {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

inline WorkSlice warp_slice(const simt::WarpExec& w, std::uint64_t n) {
  const auto warps = static_cast<std::uint64_t>(w.num_warps_total());
  const auto id = static_cast<std::uint64_t>(w.global_warp_id());
  return {static_cast<std::uint32_t>(n * id / warps),
          static_cast<std::uint32_t>(n * (id + 1) / warps)};
}

/// Warp-uniform load of base[i]: every active lane reads the same word.
inline std::uint32_t load_uniform(simt::WarpExec& w,
                                  const std::uint32_t* base,
                                  std::uint32_t i) {
  simt::LaneArray<std::uint32_t> idx{};
  simt::LaneArray<std::uint32_t> val{};
  w.vec([&](int lane) { idx[lane] = i; });
  w.gather(base, idx, val);
  return val[static_cast<std::size_t>(std::countr_zero(w.active_mask()))];
}

/// One survivor per lane, decoded, with its subject's extent.
struct LaneHits {
  simt::LaneArray<std::uint32_t> seq{};
  simt::LaneArray<std::int32_t> diag{};
  simt::LaneArray<std::uint32_t> spos{};
  simt::LaneArray<std::uint32_t> qpos{};
  simt::LaneArray<std::uint32_t> seq_off{};  ///< offset into block residues
  simt::LaneArray<std::uint32_t> seq_len{};
};

/// Loads survivor filtered.hits[index[lane]] for every active lane.
inline LaneHits fetch_hits(simt::WarpExec& w, const FilteredBins& filtered,
                           const BlockDevice& block,
                           const simt::LaneArray<std::uint32_t>& index) {
  LaneHits h;
  simt::LaneArray<std::uint64_t> packed{};
  w.gather(filtered.hits.data(), index, packed);
  w.vec([&](int lane) {
    h.seq[lane] = hit_seq(packed[lane]);
    h.diag[lane] = hit_diagonal(packed[lane]);
    h.spos[lane] = hit_spos(packed[lane]);
    h.qpos[lane] = hit_qpos(packed[lane]);
  });
  simt::LaneArray<std::uint32_t> next{};
  simt::LaneArray<std::uint32_t> hi{};
  w.gather(block.offsets.data(), h.seq, h.seq_off);
  w.vec([&](int lane) { next[lane] = h.seq[lane] + 1; });
  w.gather(block.offsets.data(), next, hi);
  w.vec([&](int lane) { h.seq_len[lane] = hi[lane] - h.seq_off[lane]; });
  return h;
}

/// Where one warp's records landed: slots [base, base + count).
struct WarpRecords {
  std::uint32_t base = 0;
  std::uint32_t count = 0;
};

/// Emits per-lane extension results into the warp's record range with a
/// warp compaction (no global atomics, mirroring the per-block output
/// buffering the paper adopts from GPU-BLASTP).
inline void emit_records(simt::WarpExec& w, ExtensionRecords& records,
                         WarpRecords& out,
                         const simt::LaneArray<std::uint8_t>& emit,
                         const simt::LaneArray<std::uint32_t>& seq,
                         const simt::LaneArray<std::uint32_t>& diag_biased,
                         const simt::LaneArray<std::uint32_t>& seed_spos,
                         const simt::LaneArray<std::uint32_t>& q_start,
                         const simt::LaneArray<std::uint32_t>& q_end,
                         const simt::LaneArray<int>& score) {
  const simt::Mask mask =
      w.ballot([&](int lane) { return emit[lane] != 0; });
  if (mask == 0) return;
  // Exclusive compaction rank from the ballot mask (the __ballot_sync +
  // __popc idiom). A width-32 shuffle scan here would read inactive peers'
  // registers when the caller is divergent (this runs inside
  // if_then/loop_while bodies) — undefined on hardware, and a synccheck
  // divergent-collective hazard.
  w.if_then(
      [&](int lane) { return ((mask >> lane) & 1u) != 0; },
      [&] {
        simt::LaneArray<std::uint32_t> dst{};
        w.vec([&](int lane) {
          dst[lane] = out.base + out.count + simt::rank_below(mask, lane);
        });
        w.scatter(records.seq.data(), dst, seq);
        w.scatter(records.q_start.data(), dst, q_start);
        w.scatter(records.q_end.data(), dst, q_end);
        w.scatter(records.diag_biased.data(), dst, diag_biased);
        w.scatter(records.score.data(), dst, score);
        w.scatter(records.seed_spos.data(), dst, seed_spos);
      });
  out.count += static_cast<std::uint32_t>(std::popcount(mask));
}

/// Algorithm 5 (window-based extension) kernel launcher; defined in
/// window_kernel.cpp. emitted holds one entry per warp of cfg.
void run_window_extension_kernel(simt::Engine& engine, const Config& config,
                                 const QueryDevice& query,
                                 const BlockDevice& block,
                                 const FilteredBins& filtered,
                                 const simt::LaunchConfig& cfg,
                                 ExtensionRecords& records,
                                 std::vector<WarpRecords>& emitted,
                                 std::atomic<std::uint64_t>& extensions_run);

}  // namespace repro::core::detail
