// The fine-grained cuBLASTP kernels (paper §3.2–3.4):
//   K1 hit detection with binning        (Algorithm 2, Fig. 5)
//   K3 hit sorting                       (Fig. 6a/b; bin scan + gpualgo
//                                          sort of the long bins out of
//                                          the grid)
//   K4 hit filtering + segment indexing  (Fig. 6c; sorts the short bins
//                                          in registers as it filters)
//   K5 ungapped extension                (Algorithms 3/4/5, Fig. 9)
// The paper's K2 (hit assembling) has no launch of its own: K3's first
// pass reads each long bin from K1's grid and writes it sorted into place,
// and K4 reads each short bin from the grid into registers.
#pragma once

#include <cstdint>
#include <vector>

#include "blast/types.hpp"
#include "core/bins.hpp"
#include "core/config.hpp"
#include "core/device_data.hpp"
#include "simt/engine.hpp"

namespace repro::core {

/// Kernel names as they appear in the profile registry (Fig. 19 rows).
inline constexpr const char* kKernelDetection = "hit_detection";
inline constexpr const char* kKernelScan = "bin_scan";
inline constexpr const char* kKernelSort = "hit_sort";
inline constexpr const char* kKernelFilter = "hit_filter";
inline constexpr const char* kKernelExtension = "ungapped_extension";

struct DetectionResult {
  std::uint64_t total_hits = 0;
  bool overflowed = false;
};

/// K1: warp-per-sequence, lane-per-word hit detection writing packed hits
/// into the warp's bins (shared-memory top[] counters, paper Algorithm 2).
/// Each bin's count is flushed clamped to the capacity: the hits it holds.
/// `bins` must be armed: freshly constructed, or re-armed by
/// BinGrid::rearm since its last launch.
DetectionResult launch_hit_detection(simt::Engine& engine,
                                     const Config& config,
                                     const QueryDevice& query,
                                     const BlockDevice& block, BinGrid& bins);

/// The bins laid out back to back, unpadded. No two bins share a
/// (sequence, diagonal) key: K1 files all hits of one diagonal of one
/// sequence in one bin.
struct AssembledBins {
  /// Bin b's place, [offsets[b], offsets[b + 1]). launch_sort writes the
  /// bins longer than a warp there, sorted; the shorter ones K4 reads where
  /// they start out (the grid, or here) and sorts in registers.
  simt::DeviceVector<std::uint64_t> hits;
  simt::DeviceVector<std::uint32_t> offsets;  ///< num_bins()+1 bin starts
  /// K1's grid, which holds every bin's unsorted hits (bin b's in the row
  /// at grid + b * capacity), not owned; it must stay armed until
  /// launch_filter has run. Null when the bins start out in `hits`.
  const std::uint64_t* grid = nullptr;
  std::uint32_t capacity = 0;
  /// Every bin longer than a warp is sorted in `hits` (launch_sort).
  bool sorted = false;

  [[nodiscard]] std::size_t num_bins() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

/// Places the bins: a device scan of K1's counts (kKernelScan) gives each
/// bin its start. `hits` is left unfilled and the result views `bins`'
/// slots, which must stay armed until launch_filter.
AssembledBins launch_assemble(simt::Engine& engine, const BinGrid& bins);

/// K3: sorts every bin longer than a warp by the packed (seq | diagonal |
/// spos) key (gpualgo::sort_long_segments_u64: a warp takes a run of 32
/// bins), reading it from the grid and writing it sorted into `hits`, or
/// sorting it in place without a grid view. The shorter bins, most of the
/// hits, are K4's to sort. It launches even when no bin is that long.
void launch_sort(simt::Engine& engine, AssembledBins& assembled);

/// K4's output: one flat work list for K5, in (bin, segment) order.
/// Segment g is the (sequence, diagonal) run of survivors
/// [segments[g], segments[g + 1]); the last entry is the sentinel
/// total_survivors. Both arrays are sized exactly.
struct FilteredBins {
  simt::DeviceVector<std::uint64_t> hits;      ///< survivors, compact
  simt::DeviceVector<std::uint32_t> segments;  ///< first survivor of each
  std::uint64_t total_survivors = 0;
  std::uint64_t total_segments = 0;
  std::size_t num_bins = 0;  ///< bins it was built from (sizes K5's grid)
};

/// K4: two-hit filter — a hit survives iff its left neighbour in the sorted
/// bin is on the same (sequence, diagonal) within the window A — plus the
/// flat segment list. A warp takes a run of 32 consecutive bins, K3's runs:
/// it sorts the run's short bins in register packs
/// (gpualgo::walk_run) and filters them there, and streams each long bin
/// from `hits` in between, so its survivors come in bin order. This filter
/// pass counts each run's survivors and segments, a device scan places
/// them, and an indexing pass writes the compact survivors and each
/// segment's first-survivor index. `assembled` must be sorted
/// (launch_sort).
FilteredBins launch_filter(simt::Engine& engine, const Config& config,
                           const AssembledBins& assembled);

struct ExtensionResult {
  /// Qualifying extensions (score >= ungapped_cutoff), de-duplicated,
  /// seq indices block-local (caller rebases by BlockDevice::first_seq).
  std::vector<blast::UngappedExtension> extensions;
  std::uint64_t extensions_run = 0;   ///< includes hit-based redundancy
  std::uint64_t records_d2h_bytes = 0;
};

/// K5: one of the three fine-grained extension kernels per
/// config.strategy. Each warp takes one contiguous slice of the flat list
/// (segments, or survivors for the hit-based kernel) and writes its records
/// into that slice's own survivor range.
ExtensionResult launch_extension(simt::Engine& engine, const Config& config,
                                 const QueryDevice& query,
                                 const BlockDevice& block,
                                 const FilteredBins& filtered);

}  // namespace repro::core
