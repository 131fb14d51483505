// A long-lived search session over a fleet of K modeled GPUs (DESIGN.md
// §12/§17): the engines and the device-resident database survive across
// queries, and everything runs on the calling thread.
//
// CuBlastp::search pays the full setup cost on every call — a fresh
// simt::Engine and a full database upload over the modeled PCIe link. A
// SearchSession is constructed once from a Config and a database, owns the
// engines and the block residency (each block uploaded exactly once,
// lazily, inside the first search that touches it), and answers any number
// of queries against them:
//
//   core::SearchSession session(config, db);     // config.shards = K
//   auto r1 = session.search(query1);            // uploads the database
//   auto r2 = session.search(query2);            // reuses the device image
//   auto batch = session.search_batch(queries);  // modeled cross-query overlap
//   auto all = session.search_all_vs_all();      // every DB sequence as query
//
// The database's block split is partitioned contiguously across K =
// Config::shards EngineShards (clamped to [1, blocks]), each owning its own
// engine and the residency of its slice. A query is prepared once over the
// whole database, so every shard derives the same cutoffs and e-values;
// then each shard's GPU half runs in shard order, the CPU half (gapped
// extension + traceback) runs block by block in global block order, and
// finalization ranks the merged alignments. Alignments, counters and
// per-block ladder outcomes are bit-identical at every K.
//
// A batch runs its queries one after another. The cross-query overlap of
// Fig. 12 is modeled, not run on host threads: the batch makespan is the
// slowest shard's walk_batch_pipeline over the per-block costs.
#pragma once

#include <cstdint>
#include <memory>
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

/// Aggregate result of SearchSession::search_batch: the per-query reports
/// plus what the batch amortized (database residency) and overlapped
/// (modeled cross-query pipeline makespan vs N independent searches).
struct BatchReport {
  std::vector<SearchReport> reports;  ///< one per query, in input order

  /// Wall seconds of each query, from its preparation to the end of its
  /// finalization (queries run one after another).
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

  /// Engine shards of the session that produced this batch. Schema v4.
  std::size_t shards = 1;

  /// One machine-readable document for the whole batch (schema
  /// "cublastp.batch_report.v5"): batch aggregates, the per-query terminal
  /// "statuses" array, plus the full per-query search_report.v5 objects.
  /// See core/report.cpp.
  [[nodiscard]] std::string to_json() const;
};

class SearchSession {
 public:
  /// Validates and normalizes the config (same contract as CuBlastp's
  /// constructor), partitions the database's block split contiguously
  /// across `config.shards` shards (clamped to [1, blocks]; shard s owns
  /// blocks [s*B/K, (s+1)*B/K)), and builds one EngineShard per slice.
  /// Nothing is uploaded yet: each block's H2D transfer happens inside the
  /// first search that touches it, so the cost lands in that search's
  /// trace and profile.
  SearchSession(Config config, const bio::SequenceDatabase& db);

  SearchSession(const SearchSession&) = delete;
  SearchSession& operator=(const SearchSession&) = delete;

  /// One query against the resident database. Behaves exactly like
  /// CuBlastp::search except that engines and database residency persist:
  /// the first call uploads the database, later calls reuse it (their
  /// reports carry no h2d_block time and a warm read-only cache). The
  /// report carries one ShardSummary per shard in its v4 `shards` section.
  ///
  /// `cancel` (empty by default) is polled cooperatively at every pipeline
  /// stage boundary — before each block's degradation ladder, between the
  /// ladder's rungs, before each block's CPU stage, and before
  /// finalization — and its root flag is installed on each shard's engine
  /// so an in-flight launch skips its remaining work. A stopped query
  /// throws SearchError{kCancelled} or {kDeadlineExceeded}; device buffers
  /// unwind through their RAII owners (nothing leaks), and the resident
  /// database image stays valid for the next query. An empty token (or one
  /// that never fires) leaves results bit-identical to the token-less call.
  [[nodiscard]] SearchReport search(std::span<const std::uint8_t> query,
                                    const CancellationToken& cancel = {});

  /// Many queries in input order. Per-query reports are bit-identical to
  /// sequential search() calls; BatchReport::modeled_batch_seconds is the
  /// slowest shard's cross-query pipeline walk. The injected fault
  /// schedule (Config::fault_schedule), if any, is installed once around
  /// the whole batch.
  [[nodiscard]] BatchReport search_batch(
      std::span<const std::span<const std::uint8_t>> queries);

  /// All-vs-all batch mode: every database sequence (the first `limit`
  /// when nonzero) is searched as a query against the whole resident
  /// database through search_batch.
  [[nodiscard]] BatchReport search_all_vs_all(std::size_t limit = 0);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const bio::SequenceDatabase& db() const { return *db_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const EngineShard& shard(std::size_t s) const {
    return *shards_[s];
  }

  /// h2d_block bytes uploaded so far, summed over the shards; after any
  /// fault-free search this equals db_device_bytes() and never grows again.
  [[nodiscard]] std::uint64_t resident_bytes() const;
  /// Block uploads so far, summed over the shards (fault-free: exactly one
  /// per block, ever).
  [[nodiscard]] std::uint64_t block_uploads() const;
  /// Size of the full database device image — what every one-shot search
  /// pays on the modeled PCIe link before its first kernel. The partition
  /// covers every block once, so the shard sum equals one engine's image.
  [[nodiscard]] std::uint64_t db_device_bytes() const;

  /// The session's continuous profiler: every finished query's per-kernel
  /// ProfileRegistry delta, summed over shards, is folded in (always on —
  /// see DESIGN.md §16). The service layer reads it for status snapshots;
  /// tests and the CLI read it for the Fig. 19-style table.
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
  struct QueryRun;  // one finished query (search_session.cpp)

  /// One query end to end: preparation, every shard's GPU half in shard
  /// order, the CPU half block by block in global order, finalization,
  /// and the assembled report. The QueryContext (and with it the query's
  /// device buffers) is gone when this returns.
  QueryRun run_query(std::span<const std::uint8_t> query,
                     const CancellationToken& cancel, std::size_t query_index,
                     bool emit_modeled_trace);

  Config config_;
  const bio::SequenceDatabase* db_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  simt::prof::ContinuousProfiler profiler_;
  /// Device generation at construction: the floor for leak_check().
  std::uint64_t session_generation_ = 0;
};

}  // namespace repro::core
