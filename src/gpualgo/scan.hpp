// Block/grid prefix scan expressed as SIMT kernels (the CUB-scan stand-in
// of DESIGN.md §1). Hit assembling turns per-bin hit counts into bin
// offsets with it; hit filtering places each bin's survivors and segments.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "simt/engine.hpp"

namespace repro::gpualgo {

/// Exclusive plus-scan of `input`, executed on the SIMT engine.
/// Returns input.size() + 1 values; the last is the total.
[[nodiscard]] std::vector<std::uint32_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint32_t> input,
    const std::string& kernel_name = "scan");

/// The same scan over 64-bit values: two 32-bit counts packed in one word
/// are scanned together, as long as neither half's total overflows.
[[nodiscard]] std::vector<std::uint64_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint64_t> input,
    const std::string& kernel_name = "scan");

}  // namespace repro::gpualgo
