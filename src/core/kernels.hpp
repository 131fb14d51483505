// The fine-grained cuBLASTP kernels (paper §3.2–3.4):
//   K1 hit detection with binning        (Algorithm 2, Fig. 5)
//   K2 hit assembling                    (Fig. 6a)
//   K3 hit sorting                       (Fig. 6b; gpualgo segmented sort)
//   K4 hit filtering + segment indexing  (Fig. 6c)
//   K5 ungapped extension                (Algorithms 3/4/5, Fig. 9)
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
inline constexpr const char* kKernelAssemble = "hit_assemble";
inline constexpr const char* kKernelScan = "bin_scan";
inline constexpr const char* kKernelSort = "hit_sort";
inline constexpr const char* kKernelFilter = "hit_filter";
inline constexpr const char* kKernelExtension = "ungapped_extension";

struct DetectionResult {
  std::uint64_t total_hits = 0;
  bool overflowed = false;
};

/// Optional pre-filter survivor list for hit detection (prefilter.hpp):
/// when `ids` is set, detection iterates the `count` listed block-local
/// sequence indices instead of every sequence. Default-constructed =
/// unfiltered, with an instruction stream identical to the pre-filter era.
struct SurvivorView {
  const std::uint32_t* ids = nullptr;
  std::uint32_t count = 0;
};

/// K1: warp-per-sequence, lane-per-word hit detection writing packed hits
/// into the warp's bins (shared-memory top[] counters, paper Algorithm 2).
DetectionResult launch_hit_detection(simt::Engine& engine,
                                     const Config& config,
                                     const QueryDevice& query,
                                     const BlockDevice& block, BinGrid& bins,
                                     SurvivorView survivors = {});

struct AssembledBins {
  simt::DeviceVector<std::uint64_t> hits;  ///< the bins back to back, unpadded
  std::vector<std::uint32_t> offsets;      ///< total_bins+1 bin starts
  simt::DeviceVector<std::uint32_t> counts;  ///< hits per bin
  std::uint64_t total_hits = 0;
};

/// K2: compacts the fixed-capacity bins into one contiguous buffer, each
/// bin at its true count (warp per bin, coalesced copy). The bin starts
/// come from a device scan of the counts (kKernelScan).
AssembledBins launch_assemble(simt::Engine& engine, const BinGrid& bins);

/// K3: sorts every bin by the packed (seq | diagonal | spos) key (warp per
/// bin, gpualgo::segmented_sort_u64).
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
/// flat segment list. Warp per bin: a filter pass counts each bin's
/// survivors and segments (left neighbour and previous survivor arrive by
/// shuffle), a device scan places them, and an indexing pass writes the
/// compact survivors and each segment's first-survivor index.
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
