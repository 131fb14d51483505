#include "simt/rocache.hpp"

#include <bit>

namespace repro::simt {

ReadOnlyCache::ReadOnlyCache(std::size_t capacity_bytes,
                             std::size_t line_bytes)
    : line_shift_(static_cast<std::size_t>(
          std::countr_zero(line_bytes == 0 ? 128 : line_bytes))),
      tags_(std::max<std::size_t>(1, capacity_bytes / (line_bytes ? line_bytes
                                                                  : 128)),
            0),
      slot_magic_(~static_cast<__uint128_t>(0) / tags_.size() + 1) {}

bool ReadOnlyCache::access(std::uintptr_t address) {
  const std::uint64_t line = address >> line_shift_;
  // (line * magic mod 2^128) * num_lines / 2^128 == line % num_lines.
  const __uint128_t frac = slot_magic_ * line;
  const std::uint64_t n = tags_.size();
  const __uint128_t low =
      (static_cast<__uint128_t>(static_cast<std::uint64_t>(frac)) * n) >>
      64;
  const auto slot = static_cast<std::size_t>(
      (low + static_cast<__uint128_t>(static_cast<std::uint64_t>(
                 frac >> 64)) * n) >> 64);
  if (tags_[slot] == line + 1) return true;
  tags_[slot] = line + 1;  // +1 so line 0 is distinguishable from empty
  return false;
}

void ReadOnlyCache::clear() { tags_.assign(tags_.size(), 0); }

}  // namespace repro::simt
