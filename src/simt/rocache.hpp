// Read-only data cache model (Kepler's 48 kB per-SM texture-path cache).
//
// Direct-mapped over 128-byte lines: cheap enough to probe on every lane
// access, and captures the first-order behaviour the paper exploits in
// §3.5/Fig. 10 — DFA query positions are touched repeatedly and mostly fit,
// so subsequent warps hit in cache instead of re-reading global memory.
#pragma once

#include <cstdint>
#include <vector>

#include "simt/device.hpp"

namespace repro::simt {

class ReadOnlyCache {
 public:
  ReadOnlyCache(std::size_t capacity_bytes, std::size_t line_bytes);

  /// Probes the line containing `address`; inserts on miss.
  /// Returns true on hit.
  bool access(std::uintptr_t address);

  void clear();

  [[nodiscard]] std::size_t num_lines() const { return tags_.size(); }

 private:
  std::size_t line_shift_;
  std::vector<std::uintptr_t> tags_;  ///< 0 = empty
  /// ceil(2^128 / num_lines()): slot = line % num_lines() by Lemire, Kaser
  /// and Kurz's direct remainder, exact for every 64-bit line, instead of
  /// a 64-bit division on every probe.
  __uint128_t slot_magic_;
};

}  // namespace repro::simt
