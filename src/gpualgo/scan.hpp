// Block/grid prefix scan expressed as SIMT kernels (the CUB-scan stand-in
// of DESIGN.md §1). K3 gets each bin's place in the sorted hit list from it
// (bin_scan); K4 places each run's survivors and segments.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "simt/device_buffer.hpp"
#include "simt/engine.hpp"

namespace repro::gpualgo {

/// Exclusive plus-scan of `input`, executed on the SIMT engine. Returns
/// input.size() + 1 values in device memory; the last is the total. Every
/// value is written by a launch: one tile scans in one launch; more tiles
/// reduce-then-scan (tile totals, their scan, then each tile scans with its
/// offset and writes once).
[[nodiscard]] simt::DeviceVector<std::uint32_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint32_t> input,
    const std::string& kernel_name = "scan");

/// The same scan over 64-bit values: two 32-bit counts packed in one word
/// are scanned together, as long as neither half's total overflows.
[[nodiscard]] simt::DeviceVector<std::uint64_t> exclusive_scan_device(
    simt::Engine& engine, std::span<const std::uint64_t> input,
    const std::string& kernel_name = "scan");

}  // namespace repro::gpualgo
