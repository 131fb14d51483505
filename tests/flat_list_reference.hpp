// Host references for K4's flat segment list and K5's extensions, bins
// built by hand (sorted in place, or in a grid as K1 leaves them), and a
// set of sorted bins with very uneven segments. Shared by the kernel tests
// and the simtcheck clean-surface tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bio/database.hpp"
#include "bio/pssm.hpp"
#include "blast/types.hpp"
#include "blast/ungapped.hpp"
#include "core/bins.hpp"
#include "core/kernels.hpp"
#include "simt/device_buffer.hpp"
#include "util/rng.hpp"

namespace repro::testref {

/// Assembled bins holding the given keys, each bin sorted. Like K1's bins,
/// no two may share a (sequence, diagonal) key; K4 relies on it.
inline core::AssembledBins make_bins(
    std::vector<std::vector<std::uint64_t>> bins) {
  std::map<std::uint64_t, std::size_t> owner;
  for (std::size_t b = 0; b < bins.size(); ++b)
    for (const std::uint64_t hit : bins[b])
      if (owner.emplace(hit >> 16, b).first->second != b)
        throw std::invalid_argument("make_bins: a key lies in two bins");

  core::AssembledBins assembled;
  assembled.offsets.push_back(0);
  for (auto& bin : bins) {
    std::sort(bin.begin(), bin.end());
    assembled.hits.insert(assembled.hits.end(), bin.begin(), bin.end());
    assembled.offsets.push_back(
        static_cast<std::uint32_t>(assembled.hits.size()));
  }
  assembled.sorted = true;
  return assembled;
}

/// The hits K1 left in each bin of `grid`, in slot order: what K3 and K4
/// read out of it. make_bins of these is the sorted reference.
inline std::vector<std::vector<std::uint64_t>> grid_bins(
    const core::BinGrid& grid) {
  std::vector<std::vector<std::uint64_t>> bins(grid.total_bins());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const auto first = grid.slots.begin() +
                       static_cast<std::ptrdiff_t>(grid.slot_index(b, 0));
    bins[b].assign(first, first + grid.counts[b]);
  }
  return bins;
}

/// A grid of one warp's bins holding `bins` as K1 leaves them: bin b's hits
/// in the first slots of row b, in the order given, and its count. The
/// slots past each count hold small keys that would sort first if read,
/// and initcheck sees them as never written.
inline core::BinGrid make_grid(
    const std::vector<std::vector<std::uint64_t>>& bins,
    std::uint32_t capacity) {
  core::BinGrid grid(1, static_cast<int>(bins.size()), capacity);
  for (std::size_t i = 0; i < grid.slots.size(); ++i) grid.slots[i] = i % 4;
  simt::mark_device_uninitialized(
      grid.slots.data(), grid.slots.size() * sizeof(std::uint64_t));
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (bins[b].size() > capacity)
      throw std::invalid_argument("make_grid: a bin exceeds the capacity");
    std::uint64_t* row = grid.slots.data() + grid.slot_index(b, 0);
    std::copy(bins[b].begin(), bins[b].end(), row);
    simt::mark_device_initialized(row, bins[b].size() * sizeof(std::uint64_t));
    grid.counts[b] = static_cast<std::uint32_t>(bins[b].size());
  }
  return grid;
}

/// The survivors of every sorted bin, in bin order, and the index of each
/// (sequence, diagonal) segment's first survivor, closed by the total.
struct FlatReference {
  std::vector<std::uint64_t> survivors;
  std::vector<std::uint32_t> segments;
};

inline FlatReference flat_reference(const core::AssembledBins& assembled,
                                    const blast::SearchParams& params) {
  const auto window = static_cast<std::uint32_t>(params.two_hit_window);
  FlatReference ref;
  for (std::size_t b = 0; b < assembled.num_bins(); ++b) {
    const std::uint64_t* hits = assembled.hits.data() + assembled.offsets[b];
    const std::size_t first = ref.survivors.size();
    const std::uint32_t count = assembled.offsets[b + 1] - assembled.offsets[b];
    for (std::uint32_t i = 0; i < count; ++i) {
      const bool survives =
          params.one_hit ||
          (i > 0 && hits[i] >> 16 == hits[i - 1] >> 16 &&
           core::hit_spos(hits[i]) - core::hit_spos(hits[i - 1]) <= window);
      if (!survives) continue;
      if (ref.survivors.size() == first ||
          hits[i] >> 16 != ref.survivors.back() >> 16)
        ref.segments.push_back(
            static_cast<std::uint32_t>(ref.survivors.size()));
      ref.survivors.push_back(hits[i]);
    }
  }
  ref.segments.push_back(static_cast<std::uint32_t>(ref.survivors.size()));
  return ref;
}

/// What K5 must produce from a flat list: per segment, in subject order,
/// extend every survivor the previous extension did not cover, and keep
/// those scoring at least the cutoff. `runs` counts the extensions.
inline std::vector<blast::UngappedExtension> reference_extensions(
    const FlatReference& ref, const bio::SequenceDatabase& db,
    const bio::Pssm& pssm, const blast::SearchParams& params,
    std::uint64_t* runs = nullptr) {
  std::vector<blast::UngappedExtension> out;
  for (std::size_t g = 0; g + 1 < ref.segments.size(); ++g) {
    std::int64_t reach = -1;
    for (std::uint32_t i = ref.segments[g]; i < ref.segments[g + 1]; ++i) {
      const std::uint64_t hit = ref.survivors[i];
      const std::uint32_t spos = core::hit_spos(hit);
      if (static_cast<std::int64_t>(spos) <= reach) continue;
      const std::uint32_t seq = core::hit_seq(hit);
      const blast::UngappedExtension ext = blast::extend_ungapped(
          pssm, db.residues(seq), seq, core::hit_qpos(hit), spos, params);
      if (runs != nullptr) ++*runs;
      reach = ext.s_end;
      if (ext.score >= params.ungapped_cutoff) out.push_back(ext);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sixteen sorted bins over real word positions of `db`: one segment of
/// 100 survivors (101 hits on one diagonal of the longest sequence) among
/// hundreds of one-survivor segments (two hits 5 apart) and some lone hits
/// that survive nothing. Most segments crowd into three bins; four bins
/// stay empty. The query must be at least 110 residues long.
inline core::AssembledBins make_uneven_bins(const bio::SequenceDatabase& db,
                                            std::uint32_t query_length,
                                            std::uint64_t seed) {
  constexpr std::size_t kBins = 16;
  constexpr std::size_t kBigBin = 10;
  std::vector<std::vector<std::uint64_t>> bins(kBins);
  std::set<std::pair<std::uint32_t, std::int32_t>> used;

  std::uint32_t longest = 0;
  for (std::uint32_t s = 1; s < db.size(); ++s)
    if (db.length(s) > db.length(longest)) longest = s;
  for (std::uint32_t spos = 0; spos <= 100; ++spos)
    bins[kBigBin].push_back(core::pack_hit(longest, 0, spos));
  used.insert({longest, 0});

  util::Rng rng(seed);
  const auto place = [&](std::uint32_t seq, std::uint32_t qpos,
                         std::uint32_t spos, std::size_t bin, bool paired) {
    const auto diag =
        static_cast<std::int32_t>(spos) - static_cast<std::int32_t>(qpos);
    if (!used.insert({seq, diag}).second) return;
    bins[bin].push_back(core::pack_hit(seq, diag, spos));
    if (paired) bins[bin].push_back(core::pack_hit(seq, diag, spos + 5));
  };
  for (int n = 0; n < 1000; ++n) {
    const auto seq = static_cast<std::uint32_t>(rng.below(db.size()));
    const auto len = static_cast<std::uint32_t>(db.length(seq));
    if (len < 16) continue;
    // Two segments in three go to bins 0-2, the rest to bins 0-11; bins
    // 12-15 stay empty.
    const std::size_t bin =
        rng.below(3) == 0 ? static_cast<std::size_t>(rng.below(12))
                          : static_cast<std::size_t>(rng.below(3));
    place(seq, static_cast<std::uint32_t>(rng.below(query_length - 8)),
          static_cast<std::uint32_t>(rng.below(len - 8)), bin,
          /*paired=*/n % 10 != 0);
  }

  return make_bins(std::move(bins));
}

}  // namespace repro::testref
