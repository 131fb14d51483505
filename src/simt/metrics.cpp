#include "simt/metrics.hpp"

#include <algorithm>

namespace repro::simt {

KernelStats& KernelStats::operator+=(const KernelStats& other) {
  vec_ops += other.vec_ops;
  active_lane_sum += other.active_lane_sum;
  ld_requests += other.ld_requests;
  ld_bytes_requested += other.ld_bytes_requested;
  ld_transactions += other.ld_transactions;
  st_requests += other.st_requests;
  st_bytes_requested += other.st_bytes_requested;
  st_transactions += other.st_transactions;
  rocache_hits += other.rocache_hits;
  rocache_misses += other.rocache_misses;
  shared_ops += other.shared_ops;
  shared_conflict_passes += other.shared_conflict_passes;
  atomic_ops += other.atomic_ops;
  atomic_serial_passes += other.atomic_serial_passes;
  simtcheck_hazards += other.simtcheck_hazards;
  num_blocks += other.num_blocks;
  shared_bytes = std::max(shared_bytes, other.shared_bytes);
  return *this;
}

void KernelStats::merge(const KernelStats& other) {
  *this += other;
  block_threads = other.block_threads;
  regs_per_thread = other.regs_per_thread;
  occupancy_weight += other.occupancy_weight;
  if (other.sm_threads != 0) sm_threads = other.sm_threads;
  derive_occupancy();
  time_ms += other.time_ms;
}

void KernelStats::derive_occupancy() {
  const std::uint64_t capacity =
      num_blocks * static_cast<std::uint64_t>(sm_threads);
  occupancy = capacity == 0 ? 0.0
                            : static_cast<double>(occupancy_weight) /
                                  static_cast<double>(capacity);
}

void ProfileRegistry::add(const KernelStats& stats) {
  auto [it, inserted] = kernels_.try_emplace(stats.name, stats);
  if (!inserted) it->second.merge(stats);
}

ProfileRegistry ProfileRegistry::diff(const ProfileRegistry& baseline) const {
  ProfileRegistry delta;
  for (const auto& [name, after] : kernels_) {
    if (!baseline.has(name)) {
      // Same no-work drop as below, so a zero-byte transfer is absent from
      // the delta whether or not the baseline ever saw the kernel — a
      // fresh engine's first search and a warm session's Nth search
      // produce the same kernel set for the same query.
      const bool saw_work = after.num_blocks != 0 || after.vec_ops != 0 ||
                            after.st_bytes_requested != 0 ||
                            after.time_ms != 0.0;
      if (saw_work) delta.kernels_.emplace(name, after);
      continue;
    }
    const KernelStats& before = baseline.at(name);
    KernelStats d = after;
    d.vec_ops -= before.vec_ops;
    d.active_lane_sum -= before.active_lane_sum;
    d.ld_requests -= before.ld_requests;
    d.ld_bytes_requested -= before.ld_bytes_requested;
    d.ld_transactions -= before.ld_transactions;
    d.st_requests -= before.st_requests;
    d.st_bytes_requested -= before.st_bytes_requested;
    d.st_transactions -= before.st_transactions;
    d.rocache_hits -= before.rocache_hits;
    d.rocache_misses -= before.rocache_misses;
    d.shared_ops -= before.shared_ops;
    d.shared_conflict_passes -= before.shared_conflict_passes;
    d.atomic_ops -= before.atomic_ops;
    d.atomic_serial_passes -= before.atomic_serial_passes;
    d.simtcheck_hazards -= before.simtcheck_hazards;
    d.num_blocks -= before.num_blocks;
    d.occupancy_weight -= before.occupancy_weight;
    d.time_ms -= before.time_ms;
    d.derive_occupancy();
    const bool saw_work = d.num_blocks != 0 || d.vec_ops != 0 ||
                          d.st_bytes_requested != 0 || d.time_ms != 0.0;
    if (saw_work) delta.kernels_.emplace(name, std::move(d));
  }
  return delta;
}

double ProfileRegistry::total_time_ms() const {
  double total = 0.0;
  for (const auto& [name, stats] : kernels_) total += stats.time_ms;
  return total;
}

}  // namespace repro::simt
