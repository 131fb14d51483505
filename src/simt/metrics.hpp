// Per-kernel execution metrics, measured (not assumed) from the executed
// lane traces. These are the quantities the paper profiles in Fig. 19:
// global memory load efficiency, branch-divergence overhead, and achieved
// occupancy — plus the inputs of the kernel-time cost model.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace repro::simt {

struct KernelStats {
  std::string name;

  // Instruction issue.
  std::uint64_t vec_ops = 0;          ///< warp-level instruction steps issued
  std::uint64_t active_lane_sum = 0;  ///< sum of active lanes over vec ops

  // Global memory.
  std::uint64_t ld_requests = 0;
  std::uint64_t ld_bytes_requested = 0;
  std::uint64_t ld_transactions = 0;  ///< 32-byte sectors actually fetched
  std::uint64_t st_requests = 0;
  std::uint64_t st_bytes_requested = 0;
  std::uint64_t st_transactions = 0;

  // Read-only cache.
  std::uint64_t rocache_hits = 0;
  std::uint64_t rocache_misses = 0;

  // Shared memory.
  std::uint64_t shared_ops = 0;
  std::uint64_t shared_conflict_passes = 0;  ///< extra serialized passes

  // Atomics.
  std::uint64_t atomic_ops = 0;
  std::uint64_t atomic_serial_passes = 0;  ///< address-collision passes

  // Hazard analyzer (simtcheck.hpp): hazards this launch detected.
  // Always 0 when the checker is disabled, so disabled-mode metrics are
  // bit-identical to an unchecked build.
  std::uint64_t simtcheck_hazards = 0;

  // Launch shape / resources.
  std::uint64_t num_blocks = 0;
  int block_threads = 0;
  int regs_per_thread = 0;
  std::size_t shared_bytes = 0;
  /// Resident threads per SM over sm_threads, block-weighted across
  /// launches: always derived from the integers below (derive_occupancy),
  /// so merged and differenced rows repeat bit for bit.
  double occupancy = 0.0;
  /// Resident threads per SM x blocks, summed over launches.
  std::uint64_t occupancy_weight = 0;
  int sm_threads = 0;  ///< the device's resident-thread limit per SM

  // Modeled execution time (see cost_model.hpp).
  double time_ms = 0.0;

  /// Fraction of issue slots wasted to inactive lanes (divergence +
  /// predication) — 0 for a fully converged kernel.
  [[nodiscard]] double divergence_overhead() const {
    return vec_ops == 0
               ? 0.0
               : 1.0 - static_cast<double>(active_lane_sum) /
                           (32.0 * static_cast<double>(vec_ops));
  }

  /// requested bytes / (32 B x sectors): nvprof's gld_efficiency on
  /// Kepler, whose L2 serves 32-byte sectors.
  [[nodiscard]] double global_load_efficiency() const {
    return ld_transactions == 0
               ? 1.0
               : static_cast<double>(ld_bytes_requested) /
                     (32.0 * static_cast<double>(ld_transactions));
  }

  [[nodiscard]] double global_store_efficiency() const {
    return st_transactions == 0
               ? 1.0
               : static_cast<double>(st_bytes_requested) /
                     (32.0 * static_cast<double>(st_transactions));
  }

  [[nodiscard]] double rocache_hit_ratio() const {
    const std::uint64_t total = rocache_hits + rocache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(rocache_hits) /
                            static_cast<double>(total);
  }

  /// Pure counter merge: sums every measured counter (and takes the max of
  /// the shared-memory high-water mark). Integer addition is associative
  /// and commutative, so merging per-worker shards of one launch in any
  /// order yields bit-identical totals — the property the SM-sharded
  /// parallel engine relies on. Launch-shape fields (block_threads,
  /// regs_per_thread, occupancy and its weight) are left untouched.
  KernelStats& operator+=(const KernelStats& other);

  /// Merges another launch of the same kernel: counters add, and occupancy
  /// is re-derived from the summed weight.
  void merge(const KernelStats& other);

  /// Sets occupancy to occupancy_weight / (num_blocks x sm_threads), or 0
  /// for a row with no blocks. A quotient of two exact integers, so it
  /// does not depend on how the launches were grouped.
  void derive_occupancy();
};

/// Accumulates stats across launches, keyed by kernel name.
class ProfileRegistry {
 public:
  void add(const KernelStats& stats);
  void clear() { kernels_.clear(); }

  [[nodiscard]] const std::map<std::string, KernelStats>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return kernels_.count(name) > 0;
  }
  [[nodiscard]] const KernelStats& at(const std::string& name) const {
    return kernels_.at(name);
  }

  /// Sum of modeled kernel time across all launches (ms).
  [[nodiscard]] double total_time_ms() const;

  /// The per-kernel difference against an earlier snapshot of the same
  /// registry: every additive counter (and time_ms) is subtracted, and
  /// kernels that saw no work since the snapshot are dropped — so a
  /// long-lived engine (a SearchSession) can attribute exactly one
  /// search's launches to that search's report. Occupancy is derived from
  /// the differenced weight, so it equals a fresh registry's bit for bit;
  /// shared_bytes (a running max) keeps the current value.
  [[nodiscard]] ProfileRegistry diff(const ProfileRegistry& baseline) const;

 private:
  std::map<std::string, KernelStats> kernels_;
};

}  // namespace repro::simt
