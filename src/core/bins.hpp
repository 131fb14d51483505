// The bin data structure bridging hit detection and ungapped extension
// (paper §3.2-3.3, Fig. 5 and Fig. 7).
//
// Each detection warp owns num_bins bins; a hit on diagonal d goes to bin
// d mod num_bins. Bin elements pack (sequence number | diagonal | subject
// position) into one 64-bit integer (paper Fig. 7) so a single ascending
// sort groups hits by sequence, then diagonal, then subject position, and
// the extension kernels recover everything with one memory access.
#pragma once

#include <cstdint>

#include "simt/device_buffer.hpp"

namespace repro::core {

/// Bias so the 16-bit diagonal field holds negative diagonals.
inline constexpr std::int32_t kDiagonalBias = 32768;

/// Packs a hit into the 64-bit bin element of paper Fig. 7:
/// bits [63:32] sequence, [31:16] biased diagonal, [15:0] subject position.
[[nodiscard]] constexpr std::uint64_t pack_hit(std::uint32_t seq,
                                               std::int32_t diagonal,
                                               std::uint32_t spos) {
  return (static_cast<std::uint64_t>(seq) << 32) |
         (static_cast<std::uint64_t>(
              static_cast<std::uint16_t>(diagonal + kDiagonalBias))
          << 16) |
         static_cast<std::uint16_t>(spos);
}

[[nodiscard]] constexpr std::uint32_t hit_seq(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}
[[nodiscard]] constexpr std::int32_t hit_diagonal(std::uint64_t packed) {
  return static_cast<std::int32_t>(
             static_cast<std::uint16_t>(packed >> 16)) -
         kDiagonalBias;
}
[[nodiscard]] constexpr std::uint32_t hit_spos(std::uint64_t packed) {
  return static_cast<std::uint16_t>(packed);
}
/// Query position = subject position - diagonal.
[[nodiscard]] constexpr std::uint32_t hit_qpos(std::uint64_t packed) {
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(hit_spos(packed)) - hit_diagonal(packed));
}

/// Bin storage: num_warps x num_bins bins of fixed capacity in one device
/// buffer, plus the per-bin counters the detection kernel's shared-memory
/// `top[]` is flushed into. A grid is armed for one K1 launch at a time:
/// constructed, or re-armed by rearm(). An EngineShard keeps one grid for
/// the whole session, like the device database image, and re-arms it for
/// every block attempt (paper §3.2's fixed-capacity bins, allocated once).
struct BinGrid {
  int num_warps = 0;
  int num_bins = 0;
  std::uint32_t capacity = 0;

  simt::DeviceVector<std::uint64_t> slots;
  simt::DeviceVector<std::uint32_t> counts;     ///< hits held per bin, post-K1
  simt::DeviceVector<std::uint32_t> overflow;   ///< single counter

  BinGrid(int warps, int bins, std::uint32_t cap)
      : num_warps(warps),
        num_bins(bins),
        capacity(cap),
        // Slots are left unfilled, as cudaMalloc leaves them: K1 writes
        // every slot it claims before anything reads it, so only the pages
        // it writes are ever committed.
        slots(slot_count(warps, bins, cap)),
        // counts/overflow are zero-filled (the cudaMemset a real grid setup
        // performs): the kernels atomically bump them with no prior store.
        counts(static_cast<std::size_t>(warps) *
                   static_cast<std::size_t>(bins),
               0),
        overflow(1, 0) {}

  [[nodiscard]] static std::size_t slot_count(int warps, int bins,
                                              std::uint32_t cap) {
    return static_cast<std::size_t>(warps) * static_cast<std::size_t>(bins) *
           cap;
  }
  [[nodiscard]] std::size_t total_bins() const {
    return static_cast<std::size_t>(num_warps) *
           static_cast<std::size_t>(num_bins);
  }
  [[nodiscard]] std::size_t slot_index(std::size_t bin,
                                       std::uint32_t i) const {
    return bin * capacity + i;
  }
  [[nodiscard]] bool overflowed() const { return overflow[0] != 0; }

  /// True when the grid has room for `cap` slots in each of its bins.
  [[nodiscard]] bool fits(std::uint32_t cap) const {
    return slot_count(num_warps, num_bins, cap) <= slots.size();
  }
  /// Arms the grid for another K1 launch of `cap` slots per bin (requires
  /// fits(cap)): sets the capacity and clears the counters. Slots keep what
  /// earlier launches wrote, since only claimed slots are read back;
  /// initcheck marks them undefined again, so reading an unclaimed one is
  /// still reported.
  void rearm(std::uint32_t cap) {
    capacity = cap;
    counts.assign(counts.size(), 0);
    overflow[0] = 0;
    simt::mark_device_uninitialized(slots.data(),
                                    slots.size() * sizeof(std::uint64_t));
  }
};

}  // namespace repro::core
