// The fused coarse kernel of the CUDA-BLASTP and GPU-BLASTP baselines
// (paper §3.1 / Algorithm 1) over one resident database block: one lane =
// one subject sequence, hit detection + two-hit logic + inline ungapped
// extension run to completion in a single launch. CoarseSession
// (coarse_gpu.hpp) calls it once per block.
#pragma once

#include <cstdint>
#include <vector>

#include "blast/types.hpp"
#include "core/device_data.hpp"
#include "simt/engine.hpp"

namespace repro::baselines {

struct CoarseConfig;  // coarse_gpu.hpp

/// Profile-registry name of the fused kernel.
inline constexpr const char* kCoarseKernel = "coarse_fused";

struct CoarseBlockOutput {
  /// Qualifying extensions (score >= ungapped_cutoff), seq ids block-local.
  std::vector<blast::UngappedExtension> extensions;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t hits_detected = 0;
  bool overflowed = false;  ///< output capacity exhausted; retry
};

/// Runs the fused kernel over one resident block with a fixed per-grid-block
/// output capacity. `dynamic_queue` selects GPU-BLASTP's atomic work queue
/// over CUDA-BLASTP's static assignment. On overflow the partial output is
/// discarded and `overflowed` is set; callers own the grow-and-retry policy.
[[nodiscard]] CoarseBlockOutput run_coarse_block(
    simt::Engine& engine, const CoarseConfig& config, bool dynamic_queue,
    const core::QueryDevice& query, const core::BlockDevice& block,
    std::uint32_t output_capacity);

}  // namespace repro::baselines
