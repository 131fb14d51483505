#include "simt/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace repro::simt {

Engine::Engine(DeviceSpec spec, CostModel cost)
    : spec_(spec), cost_(cost),
      simtcheck_enabled_(simtcheck_env_enabled()) {
  if (simtcheck_enabled_) set_device_shadow_enabled(true);
  sm_caches_.reserve(static_cast<std::size_t>(spec_.num_sms));
  for (int i = 0; i < spec_.num_sms; ++i)
    sm_caches_.emplace_back(spec_.readonly_cache_bytes,
                            spec_.memory_transaction_bytes);
}

void Engine::set_readonly_cache_enabled(bool enabled) {
  rocache_enabled_ = enabled;
}

void Engine::set_workers(int workers) {
  workers_ = std::clamp(workers, 1, spec_.num_sms);
  if (workers_ > 1) {
    if (!pool_ || pool_->size() != static_cast<std::size_t>(workers_))
      pool_ = std::make_unique<util::ThreadPool>(
          static_cast<std::size_t>(workers_), "engine");
  } else {
    pool_.reset();
  }
}

void Engine::reset_caches() {
  for (auto& cache : sm_caches_) cache.clear();
}

int Engine::validate_launch(const LaunchConfig& config) const {
  // "simt.launch" models a launch-time device error (cudaErrorLaunchFailure).
  if (util::fault_point("simt.launch"))
    throw DeviceError("injected launch failure in kernel '" + config.name +
                      "'");
  if (config.block_threads <= 0 || config.block_threads % kWarpSize != 0)
    throw std::invalid_argument(
        "Engine::launch: block_threads must be a positive multiple of 32");
  if (config.grid_blocks <= 0)
    throw std::invalid_argument("Engine::launch: grid_blocks must be > 0");
  if (config.block_threads > spec_.max_threads_per_block)
    throw std::invalid_argument(
        "Engine::launch: block_threads exceeds device limit");
  return config.block_threads / kWarpSize;
}

KernelStats Engine::begin_stats(const LaunchConfig& config) const {
  KernelStats stats;
  stats.name = config.name;
  stats.block_threads = config.block_threads;
  stats.regs_per_thread = config.regs_per_thread;
  stats.num_blocks = static_cast<std::uint64_t>(config.grid_blocks);
  return stats;
}

KernelStats Engine::finalize_launch(const LaunchConfig& config,
                                    KernelStats stats,
                                    std::size_t shared_high_water) {
  stats.shared_bytes = shared_high_water;
  const int resident_threads =
      compute_occupancy(spec_, config.block_threads, shared_high_water,
                        config.regs_per_thread)
          .active_threads_per_sm;
  stats.occupancy_weight =
      static_cast<std::uint64_t>(resident_threads) * stats.num_blocks;
  stats.sm_threads = spec_.max_threads_per_sm;
  stats.derive_occupancy();
  cost_.apply(spec_, stats);
  profile_.add(stats);

  // Export-side observability only: these counters feed the metrics
  // registry, never back into KernelStats or the cost model.
  static auto& launches =
      util::metrics::Registry::instance().counter("engine.launches");
  static auto& blocks =
      util::metrics::Registry::instance().counter("engine.blocks_executed");
  static auto& modeled_ms = util::metrics::Registry::instance().histogram(
      "engine.modeled_kernel_ms");
  launches.add(1);
  blocks.add(stats.num_blocks);
  modeled_ms.observe(stats.time_ms);
  return stats;
}

double Engine::transfer(const std::string& label, std::uint64_t bytes) {
  util::TraceSpan span(label, "pcie");
  // "simt.transfer" models a failed cudaMemcpy.
  if (util::fault_point("simt.transfer"))
    throw DeviceError("injected transfer failure for '" + label + "'");
  const double ms = cost_.transfer_ms(spec_, bytes);
  KernelStats stats;
  stats.name = label;
  stats.st_bytes_requested = bytes;
  stats.time_ms = ms;
  profile_.add(stats);
  if (span.active()) {
    span.arg("bytes", bytes);
    span.arg("modeled_ms", ms);
  }
  static auto& transfers =
      util::metrics::Registry::instance().counter("engine.transfers");
  static auto& transfer_bytes =
      util::metrics::Registry::instance().counter("engine.transfer_bytes");
  transfers.add(1);
  transfer_bytes.add(bytes);
  return ms;
}

}  // namespace repro::simt
