// BatchEquivalence: SearchSession::search_batch({q1..qN}) must be
// bit-identical to N sequential CuBlastp::search calls — same alignments,
// same work counters, same address-independent per-kernel stats — for any
// engine worker count, with and without an injected fault schedule, and
// with the simtcheck hazard analyzer reporting zero hazards. Under the
// virtual clock a batch's CPU-stage times repeat exactly. The session's
// database residency is also pinned here: each block uploads exactly once
// per session, however many queries run.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "bio/generator.hpp"
#include "core/cublastp.hpp"
#include "core/search_session.hpp"
#include "simt/metrics.hpp"
#include "util/timer.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

/// A few queries of different lengths against one planted-homolog
/// database (seeded, so every run sees the same workload).
Workload make_workload(std::size_t num_queries = 3,
                       std::size_t num_seqs = 60) {
  Workload w;
  for (std::size_t i = 0; i < num_queries; ++i)
    w.queries.push_back(
        bio::make_benchmark_query(97 + 40 * i, 300 + i).residues);
  auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, 23);
  w.db = gen.generate(w.queries.front());
  return w;
}

core::Config base_config(int engine_workers = 1) {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;  // keep the simulated grid small for tests
  config.bin_capacity = 64;     // exercises the overflow-retry path too
  config.engine_workers = engine_workers;
  return config;
}

std::vector<std::span<const std::uint8_t>> spans_of(const Workload& w) {
  std::vector<std::span<const std::uint8_t>> spans;
  for (const auto& q : w.queries) spans.emplace_back(q);
  return spans;
}

/// Address-independent KernelStats comparison (same carve-out as
/// trace_test.cpp): rocache hits/misses, ld/st *transactions*, and the
/// modeled time derived from them hash real heap addresses and differ
/// between any two searches in one process, so they are excluded here too.
void expect_stats_equal(const simt::KernelStats& a, const simt::KernelStats& b,
                        const std::string& name) {
  EXPECT_EQ(a.vec_ops, b.vec_ops) << name;
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum) << name;
  EXPECT_EQ(a.ld_requests, b.ld_requests) << name;
  EXPECT_EQ(a.ld_bytes_requested, b.ld_bytes_requested) << name;
  EXPECT_EQ(a.st_requests, b.st_requests) << name;
  EXPECT_EQ(a.st_bytes_requested, b.st_bytes_requested) << name;
  EXPECT_EQ(a.shared_ops, b.shared_ops) << name;
  EXPECT_EQ(a.shared_conflict_passes, b.shared_conflict_passes) << name;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << name;
  EXPECT_EQ(a.atomic_serial_passes, b.atomic_serial_passes) << name;
  EXPECT_EQ(a.num_blocks, b.num_blocks) << name;
  // shared_bytes is a high-water mark (max, not a sum), so a per-query
  // snapshot diff carries the session-lifetime peak — skip it here.
  EXPECT_EQ(a.occupancy, b.occupancy) << name;  // exact, not approximate
}

/// Everything a search reports except the database upload, which the
/// session amortizes: sequential one-shot searches each carry an
/// "h2d_block" entry, batch queries after the first do not — the
/// exactly-once residency tests below account for those bytes instead.
void expect_reports_equal(const core::SearchReport& sequential,
                          const core::SearchReport& batched) {
  EXPECT_EQ(sequential.result.alignments, batched.result.alignments);
  EXPECT_EQ(sequential.result.counters.words_scanned,
            batched.result.counters.words_scanned);
  EXPECT_EQ(sequential.result.counters.hits_detected,
            batched.result.counters.hits_detected);
  EXPECT_EQ(sequential.result.counters.hits_after_filter,
            batched.result.counters.hits_after_filter);
  EXPECT_EQ(sequential.result.counters.ungapped_extensions,
            batched.result.counters.ungapped_extensions);
  EXPECT_EQ(sequential.result.counters.gapped_extensions,
            batched.result.counters.gapped_extensions);
  EXPECT_EQ(sequential.result.counters.tracebacks,
            batched.result.counters.tracebacks);
  EXPECT_EQ(sequential.result.counters.dp_cells,
            batched.result.counters.dp_cells);
  EXPECT_EQ(sequential.bin_overflow_retries, batched.bin_overflow_retries);
  EXPECT_EQ(sequential.degraded_blocks, batched.degraded_blocks);
  EXPECT_EQ(sequential.cache_off_retries, batched.cache_off_retries);
  EXPECT_EQ(sequential.retry_counts, batched.retry_counts);
  EXPECT_EQ(sequential.faults_encountered, batched.faults_encountered);

  for (const auto& [name, stats] : sequential.profile.kernels()) {
    if (name == "h2d_block") continue;
    ASSERT_TRUE(batched.profile.has(name)) << name;
    expect_stats_equal(stats, batched.profile.at(name), name);
  }
  for (const auto& [name, stats] : batched.profile.kernels())
    EXPECT_TRUE(name == "h2d_block" || sequential.profile.has(name)) << name;
}

class BatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalence, BatchIdenticalToSequentialSearches) {
  const auto w = make_workload();
  const auto config = base_config(/*engine_workers=*/GetParam());

  std::vector<core::SearchReport> sequential;
  for (const auto& q : w.queries)
    sequential.push_back(core::CuBlastp(config).search(q, w.db));

  core::SearchSession session(config, w.db);
  const auto batch = session.search_batch(spans_of(w));

  ASSERT_EQ(batch.reports.size(), w.queries.size());
  ASSERT_EQ(batch.per_query_wall_seconds.size(), w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_reports_equal(sequential[i], batch.reports[i]);
  }
}

TEST_P(BatchEquivalence, SessionSearchIdenticalToOneShotSearch) {
  // The session's single-query path must also match CuBlastp::search —
  // including the second call, which reuses the resident database.
  const auto w = make_workload(2);
  const auto config = base_config(/*engine_workers=*/GetParam());

  core::SearchSession session(config, w.db);
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const auto sequential = core::CuBlastp(config).search(w.queries[i], w.db);
    const auto resident = session.search(w.queries[i]);
    expect_reports_equal(sequential, resident);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, BatchEquivalence,
                         ::testing::Values(1, 4));

TEST(BatchEquivalence, VirtualClockCpuTimesRepeat) {
  // Under the virtual clock a CPU-stage time is a count of clock reads. With
  // every stage of a batch on the calling thread, the same batch in a fresh
  // session must report the same per-query CPU times, at every shard count.
  const auto w = make_workload(4);
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    auto config = base_config();
    config.db_blocks = 4;
    config.shards = shards;
    auto run_batch = [&] {
      core::SearchSession session(config, w.db);
      const util::VirtualClockScope virtual_clock;
      return session.search_batch(spans_of(w));
    };
    const auto first = run_batch();
    const auto second = run_batch();
    ASSERT_EQ(first.reports.size(), w.queries.size());
    ASSERT_EQ(second.reports.size(), w.queries.size());
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      EXPECT_EQ(first.reports[i].gapped_seconds,
                second.reports[i].gapped_seconds);
      EXPECT_EQ(first.reports[i].traceback_seconds,
                second.reports[i].traceback_seconds);
      EXPECT_EQ(first.reports[i].other_seconds,
                second.reports[i].other_seconds);
    }
  }
}

TEST(BatchEquivalenceFaults, AlignmentsIdenticalUnderInjectedFaults) {
  // With a probabilistic fault schedule under a fixed nonzero seed, the
  // degradation ladder may take different paths in batch vs sequential
  // runs (the hit counters advance differently across a shared batch),
  // but DESIGN.md §9's guarantee holds either way: every rung produces
  // the same extension set, so the alignments stay bit-identical.
  const auto w = make_workload();
  auto config = base_config();
  // Ladder-protected fault points only: a probabilistic simt.transfer
  // fault could land on the h2d_query upload, which is outside the ladder
  // and fatal by design.
  config.fault_schedule =
      "core.bin_overflow:prob=0.25;simt.launch:prob=0.05";
  config.fault_seed = 1234;

  // One engine, and a fleet (K=4, clamped to the three blocks).
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    config.shards = shards;
    std::vector<core::SearchReport> sequential;
    for (const auto& q : w.queries)
      sequential.push_back(core::CuBlastp(config).search(q, w.db));

    core::SearchSession session(config, w.db);
    const auto batch = session.search_batch(spans_of(w));

    ASSERT_EQ(batch.reports.size(), w.queries.size());
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      EXPECT_EQ(sequential[i].result.alignments,
                batch.reports[i].result.alignments);
      EXPECT_EQ(sequential[i].result.counters.gapped_extensions,
                batch.reports[i].result.counters.gapped_extensions);
    }
  }
}

TEST(BatchEquivalenceHazards, SimtcheckFindsNoHazardsInBatchMode) {
  const auto w = make_workload();
  auto config = base_config(/*engine_workers=*/4);
  config.simtcheck = true;

  core::SearchSession session(config, w.db);
  const auto batch = session.search_batch(spans_of(w));
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(batch.reports[i].hazards.total, 0u);
    EXPECT_GT(batch.reports[i].hazards.collectives_checked, 0u);
  }
}

TEST(BatchResidency, DatabaseUploadedExactlyOncePerSession) {
  // Satellite regression: across a whole batch the session uploads each
  // database block exactly once — h2d_block bytes equal one full device
  // image, and further searches add nothing.
  const auto w = make_workload();
  const auto config = base_config();

  core::SearchSession session(config, w.db);
  EXPECT_EQ(session.block_uploads(), 0u);  // lazy: nothing uploaded yet
  EXPECT_EQ(session.resident_bytes(), 0u);

  const auto batch = session.search_batch(spans_of(w));
  EXPECT_EQ(session.block_uploads(), config.db_blocks);
  EXPECT_EQ(session.resident_bytes(), session.db_device_bytes());
  EXPECT_EQ(batch.h2d_block_bytes, session.db_device_bytes());
  EXPECT_EQ(batch.h2d_block_uploads, config.db_blocks);
  EXPECT_EQ(batch.db_device_bytes, session.db_device_bytes());

  // The engine's own profile agrees: the h2d_block pseudo-kernel saw
  // exactly one database image's worth of bytes.
  ASSERT_TRUE(session.shard(0).engine().profile().has("h2d_block"));
  EXPECT_EQ(session.shard(0).engine().profile().at("h2d_block").st_bytes_requested,
            session.db_device_bytes());

  // More work, same residency: a second batch and a single search reuse
  // the device image without another upload.
  const auto again = session.search_batch(spans_of(w));
  (void)session.search(w.queries.front());
  EXPECT_EQ(again.h2d_block_bytes, 0u);
  EXPECT_EQ(again.h2d_block_uploads, 0u);
  EXPECT_EQ(session.block_uploads(), config.db_blocks);
  EXPECT_EQ(session.resident_bytes(), session.db_device_bytes());
  EXPECT_EQ(session.shard(0).engine().profile().at("h2d_block").st_bytes_requested,
            session.db_device_bytes());
}

TEST(BatchResidency, BatchReportJsonCarriesSchemaAndAggregates) {
  const auto w = make_workload(2);
  core::SearchSession session(base_config(), w.db);
  const auto batch = session.search_batch(spans_of(w));
  const auto json = batch.to_json();
  EXPECT_NE(json.find("\"schema\":\"cublastp.batch_report.v5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"queries\":2"), std::string::npos);
  EXPECT_NE(json.find("cublastp.search_report.v5"), std::string::npos);
  EXPECT_NE(json.find("\"h2d\""), std::string::npos);
  EXPECT_EQ(json.find("\"prefilter\""), std::string::npos);
  // v3: per-query terminal statuses, mirrored from reports[i].status.
  EXPECT_NE(json.find("\"statuses\":[\"ok\",\"ok\"]"), std::string::npos);
}

}  // namespace
}  // namespace repro
