// A long-lived search session: the engine and the device-resident database
// survive across queries (DESIGN.md §12).
//
// CuBlastp::search pays the full setup cost on every call — a fresh
// simt::Engine and a full database upload over the modeled PCIe link. A
// SearchSession is constructed once from a Config and a database, owns the
// engine and the BlockResidency (each block uploaded exactly once, lazily,
// inside the first search that touches it), and answers any number of
// queries against them:
//
//   core::SearchSession session(config, db);
//   auto r1 = session.search(query1);            // uploads the database
//   auto r2 = session.search(query2);            // reuses the device image
//   auto batch = session.search_batch(queries);  // cross-query overlap
//
// search_batch additionally overlaps query q+1's GPU phases with query q's
// CPU gapped/traceback stage (the paper's Fig. 12 overlap generalized
// across queries): the engine-free CPU stage of each query drains on a
// worker thread while the main thread drives the next query's kernels.
// Results are bit-identical to sequential search() calls — same alignments,
// same counters, same per-kernel work — whatever the worker count.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bio/database.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/cublastp.hpp"
#include "core/pipeline.hpp"
#include "core/shard.hpp"
#include "simt/engine.hpp"
#include "simt/simtprof.hpp"

namespace repro::core {

namespace detail {
struct QueryRun;  // per-query in-flight state (session_detail.hpp)
}  // namespace detail

/// Aggregate result of SearchSession::search_batch: the per-query reports
/// plus what the batch amortized (database residency) and overlapped
/// (modeled cross-query pipeline makespan vs N independent searches).
struct BatchReport {
  std::vector<SearchReport> reports;  ///< one per query, in input order

  /// Wall seconds from each query's GPU-phase start to the end of its CPU
  /// stage (overlap makes these overlap each other).
  std::vector<double> per_query_wall_seconds;
  double batch_wall_seconds = 0.0;  ///< whole-batch wall clock

  // Modeled pipeline (Fig. 12 generalized across queries; see
  // walk_batch_pipeline): the batch makespan with cross-query overlap, and
  // what N independent one-shot sessions would model (each paying the full
  // database upload, no overlap between queries).
  double modeled_batch_seconds = 0.0;
  double modeled_sequential_seconds = 0.0;

  // Database residency amortization. `h2d_block_bytes` counts what this
  // batch actually uploaded — at most one full database image per session,
  // however many queries ran.
  std::uint64_t h2d_block_bytes = 0;    ///< bytes uploaded during the batch
  std::uint64_t h2d_block_uploads = 0;  ///< block uploads during the batch
  std::uint64_t db_device_bytes = 0;    ///< full device image (what each
                                        ///< sequential search would upload)

  // Pre-filter aggregates summed over the per-query reports (DESIGN.md
  // §13). Zero when Config::prefilter is off.
  std::uint64_t prefilter_sequences = 0;
  std::uint64_t prefilter_survivors = 0;

  [[nodiscard]] double prefilter_pass_rate() const {
    return prefilter_sequences == 0
               ? 0.0
               : static_cast<double>(prefilter_survivors) /
                     static_cast<double>(prefilter_sequences);
  }

  [[nodiscard]] double queries_per_second() const {
    return batch_wall_seconds > 0.0
               ? static_cast<double>(reports.size()) / batch_wall_seconds
               : 0.0;
  }
  [[nodiscard]] double amortized_h2d_bytes_per_query() const {
    return reports.empty() ? 0.0
                           : static_cast<double>(h2d_block_bytes) /
                                 static_cast<double>(reports.size());
  }
  /// Modeled speedup of the batched pipeline over sequential searches.
  [[nodiscard]] double modeled_speedup() const {
    return modeled_batch_seconds > 0.0
               ? modeled_sequential_seconds / modeled_batch_seconds
               : 0.0;
  }

  /// Engine shards the fleet that produced this batch ran (1 for a
  /// SearchSession; ShardedSession stamps its fleet size). Schema v4.
  std::size_t shards = 1;

  /// One machine-readable document for the whole batch (schema
  /// "cublastp.batch_report.v4"): batch aggregates, the per-query terminal
  /// "statuses" array, plus the full per-query search_report.v4 objects.
  /// See core/report.cpp.
  [[nodiscard]] std::string to_json() const;
};

class SearchSession {
 public:
  /// Validates and normalizes the config (same contract as CuBlastp's
  /// constructor) and fixes the database block split. Nothing is uploaded
  /// yet: each block's H2D transfer happens inside the first search that
  /// touches it, so the cost lands in that search's trace and profile.
  SearchSession(Config config, const bio::SequenceDatabase& db);

  SearchSession(const SearchSession&) = delete;
  SearchSession& operator=(const SearchSession&) = delete;

  /// One query against the resident database. Behaves exactly like
  /// CuBlastp::search except that engine and database residency persist:
  /// the first call uploads the database, later calls reuse it (their
  /// reports carry no h2d_block time and a warm read-only cache).
  ///
  /// `cancel` (empty by default) is polled cooperatively at every pipeline
  /// stage boundary — before each block's degradation ladder, between the
  /// ladder's rungs, before each block's CPU stage, and before
  /// finalization — and its root flag is installed on the engine so an
  /// in-flight launch skips its remaining shards. A stopped query throws
  /// SearchError{kCancelled} or {kDeadlineExceeded}; device buffers unwind
  /// through their RAII owners (nothing leaks), and the resident database
  /// image stays valid for the next query. An empty token (or one that
  /// never fires) leaves results bit-identical to the token-less call.
  [[nodiscard]] SearchReport search(std::span<const std::uint8_t> query,
                                    const CancellationToken& cancel = {});

  /// Many queries with cross-query overlap: query q's engine-free CPU
  /// stage (gapped extension + traceback + finalize) runs on a worker
  /// thread while the main thread drives query q+1's GPU phases. Per-query
  /// results are bit-identical to sequential search() calls; the injected
  /// fault schedule (Config::fault_schedule), if any, is installed once
  /// around the whole batch.
  [[nodiscard]] BatchReport search_batch(
      std::span<const std::span<const std::uint8_t>> queries);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const bio::SequenceDatabase& db() const { return *db_; }
  [[nodiscard]] const simt::Engine& engine() const { return shard_.engine(); }
  [[nodiscard]] const EngineShard& shard() const { return shard_; }

  /// h2d_block bytes uploaded so far; after any fault-free search this
  /// equals db_device_bytes() and never grows again.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return shard_.resident_bytes();
  }
  /// Block uploads so far (fault-free: exactly one per block, ever).
  [[nodiscard]] std::uint64_t block_uploads() const {
    return shard_.block_uploads();
  }
  /// Size of the full database device image — what every one-shot search
  /// pays on the modeled PCIe link before its first kernel.
  [[nodiscard]] std::uint64_t db_device_bytes() const {
    return shard_.db_device_bytes();
  }

  /// The session's continuous profiler: every finished query's per-kernel
  /// ProfileRegistry delta is folded in (always on — see DESIGN.md §16).
  /// The service layer reads it for status snapshots; tests and the CLI
  /// read it for the Fig. 19-style table.
  [[nodiscard]] const simt::prof::ContinuousProfiler& profiler() const {
    return profiler_;
  }

  /// Writes the profiler's cumulative "cublastp.profile.v1" JSON to
  /// Config::profile_path (or REPRO_PROFILE); no-op when neither is set.
  /// An unrecognized extension throws SearchError{kInvalidArgument}.
  void export_profile() const;

  /// Leakcheck over the whole session: appends one kDeviceLeak record per
  /// allocation site for every live, non-resident device allocation made
  /// since this session was constructed, and returns the leaked byte
  /// count. The resident database image (DeviceResidentScope-tagged) is
  /// exempt — outliving queries is its job. The service layer calls this
  /// when idle; tests call it after a drain to assert zero.
  std::uint64_t leak_check(simt::HazardReport& sink) const;

 private:
  /// GPU half of one query: preparation, then the shard's h2d_query
  /// upload and every block through the degradation ladder. Touches the
  /// engine; must run on the session's main thread, one query at a time.
  /// Polls the run's cancellation token at block boundaries.
  void run_gpu_phases(std::span<const std::uint8_t> query,
                      detail::QueryRun& run, std::size_t query_index);
  /// CPU half: gapped extension + traceback per block, then finalize.
  /// Engine-free and rerun-safe (outputs reset at entry), so the batch
  /// path can run it on a worker thread and retry inline on failure.
  void run_cpu_phases(detail::QueryRun& run);

  Config config_;
  const bio::SequenceDatabase* db_;
  /// The session *is* the K=1 fleet: one shard owning every block
  /// (DESIGN.md §17). Engine and residency live inside it.
  EngineShard shard_;
  simt::prof::ContinuousProfiler profiler_;
  /// Device generation at construction: the floor for leak_check().
  std::uint64_t session_generation_ = 0;
};

}  // namespace repro::core
