// ShardEquivalence: a SearchSession over K engine shards must report
// bit-identically to the same session class at K=1 — same alignments
// (scores, bit scores, e-values from the whole-database e-value
// calculator), same work counters, same per-block degradation vector —
// across K ∈ {1, 2, 4} and engine worker counts. A fault-injection case
// pins the isolation story: one shard degrades to the CPU rung while its
// siblings stay on the GPU and the merged results do not change.
//
// Carve-outs mirror batch_equivalence_test.cpp: time-derived and
// address-hashed stats are excluded, as is the h2d_query pseudo-kernel —
// a real fleet pays that upload once per shard, so its byte count scales
// with K by design (DESIGN.md §17).
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "bio/generator.hpp"
#include "core/search_session.hpp"
#include "simt/metrics.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::uint8_t> query;
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

/// Planted-homolog database plus a few queries (seeded: every run and
/// every shard count sees the identical workload).
Workload make_workload(std::size_t num_seqs = 80, std::size_t num_queries = 3) {
  Workload w;
  for (std::size_t i = 0; i < num_queries; ++i)
    w.queries.push_back(
        bio::make_benchmark_query(101 + 36 * i, 500 + i).residues);
  w.query = w.queries.front();
  auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, 31);
  w.db = gen.generate(w.query);
  return w;
}

/// Four blocks so K = 4 lands one block per shard; the default
/// bin_capacity avoids the overflow-adaptation caveat (capacity growth
/// carries across a shard's blocks, so a restarting shard boundary may
/// legitimately retry more — DESIGN.md §17).
core::Config base_config(std::size_t shards, std::size_t engine_workers = 1) {
  core::Config config;
  config.db_blocks = 4;
  config.detection_blocks = 2;  // keep the simulated grid small for tests
  config.engine_workers = static_cast<int>(engine_workers);
  config.shards = shards;
  return config;
}

std::vector<std::span<const std::uint8_t>> spans_of(const Workload& w) {
  std::vector<std::span<const std::uint8_t>> spans;
  for (const auto& q : w.queries) spans.emplace_back(q);
  return spans;
}

/// Address-independent KernelStats comparison (same carve-out as
/// batch_equivalence_test.cpp): rocache hits/misses, ld/st transactions,
/// the modeled time derived from them, and the shared_bytes high-water
/// mark are excluded.
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
  EXPECT_EQ(a.occupancy, b.occupancy) << name;  // exact, not approximate
}

bool per_shard_kernel(const std::string& name) { return name == "h2d_query"; }

/// The full deterministic subset of a report: results, counters, the
/// degradation ladder, and every kernel profile entry that is not
/// per-shard or time-derived.
void expect_reports_equal(const core::SearchReport& single,
                          const core::SearchReport& sharded) {
  EXPECT_EQ(single.result.alignments, sharded.result.alignments);
  EXPECT_EQ(single.result.counters.words_scanned,
            sharded.result.counters.words_scanned);
  EXPECT_EQ(single.result.counters.hits_detected,
            sharded.result.counters.hits_detected);
  EXPECT_EQ(single.result.counters.hits_after_filter,
            sharded.result.counters.hits_after_filter);
  EXPECT_EQ(single.result.counters.ungapped_extensions,
            sharded.result.counters.ungapped_extensions);
  EXPECT_EQ(single.result.counters.gapped_extensions,
            sharded.result.counters.gapped_extensions);
  EXPECT_EQ(single.result.counters.tracebacks,
            sharded.result.counters.tracebacks);
  EXPECT_EQ(single.result.counters.dp_cells,
            sharded.result.counters.dp_cells);
  EXPECT_EQ(single.status, sharded.status);

  EXPECT_EQ(single.bin_overflow_retries, sharded.bin_overflow_retries);
  EXPECT_EQ(single.degraded_blocks, sharded.degraded_blocks);
  EXPECT_EQ(single.cache_off_retries, sharded.cache_off_retries);
  EXPECT_EQ(single.retry_counts, sharded.retry_counts);
  EXPECT_EQ(single.faults_encountered, sharded.faults_encountered);

  for (const auto& [name, stats] : single.profile.kernels()) {
    if (per_shard_kernel(name)) continue;
    ASSERT_TRUE(sharded.profile.has(name)) << name;
    expect_stats_equal(stats, sharded.profile.at(name), name);
  }
  for (const auto& [name, stats] : sharded.profile.kernels())
    EXPECT_TRUE(per_shard_kernel(name) || single.profile.has(name)) << name;
}

/// The shards section must tile the block split: contiguous first_block
/// ranges in shard order that together own one retry count per block.
void expect_shard_topology(const core::SearchReport& report,
                           std::size_t expected_shards,
                           std::size_t db_blocks) {
  ASSERT_EQ(report.shards.size(), expected_shards);
  std::size_t next_block = 0;
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const core::ShardSummary& shard = report.shards[s];
    EXPECT_EQ(shard.shard, s);
    EXPECT_EQ(shard.first_block, next_block);
    EXPECT_GT(shard.num_blocks, 0u);
    next_block += shard.num_blocks;
  }
  EXPECT_EQ(next_block, db_blocks);
  EXPECT_EQ(report.retry_counts.size(), db_blocks);
}

// Two 8-byte fields leave no padding, so the byte dump gtest prints after
// each test name is fully defined.
struct Case {
  std::size_t shards;
  std::size_t engine_workers;
};

// Every case runs the plain pipeline; the "PrefilterOff" suffix keeps the
// test names the suite has always printed.
std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return "K" + std::to_string(info.param.shards) + "Workers" +
         std::to_string(info.param.engine_workers) + "PrefilterOff";
}

class ShardEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(ShardEquivalence, FleetSearchIdenticalToSingleEngine) {
  const auto w = make_workload();
  const Case c = GetParam();

  core::SearchSession single(base_config(1, c.engine_workers), w.db);
  core::SearchSession fleet(base_config(c.shards, c.engine_workers), w.db);
  ASSERT_EQ(fleet.num_shards(), c.shards);

  // Two queries each: the second exercises the already-resident device
  // images on both sides.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto baseline = single.search(w.query);
    const auto report = fleet.search(w.query);
    expect_reports_equal(baseline, report);
    expect_shard_topology(report, c.shards, /*db_blocks=*/4);
    // The K=1 report carries the degenerate one-shard summary.
    expect_shard_topology(baseline, 1, /*db_blocks=*/4);
  }

  // The partition covers every block exactly once: fleet residency adds up
  // to the same device image a single engine holds.
  EXPECT_EQ(fleet.db_device_bytes(), single.db_device_bytes());
  EXPECT_EQ(fleet.resident_bytes(), fleet.db_device_bytes());
  EXPECT_EQ(fleet.block_uploads(), 4u);
}

TEST_P(ShardEquivalence, FleetBatchIdenticalToSingleEngineBatch) {
  const auto w = make_workload();
  const Case c = GetParam();

  core::SearchSession single(base_config(1, c.engine_workers), w.db);
  core::SearchSession fleet(base_config(c.shards, c.engine_workers), w.db);

  const auto baseline = single.search_batch(spans_of(w));
  const auto batch = fleet.search_batch(spans_of(w));

  ASSERT_EQ(batch.reports.size(), w.queries.size());
  EXPECT_EQ(batch.shards, c.shards);
  EXPECT_EQ(baseline.shards, 1u);
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_reports_equal(baseline.reports[i], batch.reports[i]);
  }
  EXPECT_EQ(batch.db_device_bytes, baseline.db_device_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Fleet, ShardEquivalence,
    ::testing::Values(Case{1, 1}, Case{2, 1}, Case{4, 1}, Case{4, 4},
                      Case{2, 4}),
    case_name);

TEST(ShardTopology, ShardCountClampsToBlockCount) {
  const auto w = make_workload(40, 1);
  auto config = base_config(/*shards=*/16);
  core::SearchSession fleet(config, w.db);
  EXPECT_EQ(fleet.num_shards(), 4u);  // one block per shard at most
  const auto report = fleet.search(w.query);
  expect_shard_topology(report, 4, /*db_blocks=*/4);
  for (const auto& shard : report.shards) EXPECT_EQ(shard.num_blocks, 1u);
}

/// Two launch faults in a row fail both GPU rungs of global block 0 (shards
/// run in order, so launch order is global block order at every K): shard 0
/// serves it from the CPU rung while its other blocks and every sibling
/// stay on the GPU, and the merged output doesn't change.
void expect_one_shard_falls_to_cpu(std::size_t shards) {
  SCOPED_TRACE("K=" + std::to_string(shards));
  const auto w = make_workload();
  auto config = base_config(shards);
  const auto clean =
      core::SearchSession(config, w.db).search(w.query);

  config.fault_schedule = "simt.launch:every=1,max=2";
  config.fault_seed = 7;
  core::SearchSession fleet(config, w.db);
  const auto faulty = fleet.search(w.query);

  EXPECT_EQ(clean.result.alignments, faulty.result.alignments);
  EXPECT_EQ(clean.result.counters.gapped_extensions,
            faulty.result.counters.gapped_extensions);
  EXPECT_EQ(faulty.faults_encountered, 2u);
  EXPECT_EQ(faulty.degraded_blocks, 1u);
  // Block 0 failed both GPU rungs; every other block ran clean.
  EXPECT_EQ(faulty.retry_counts, (std::vector<std::uint32_t>{2, 0, 0, 0}));
  ASSERT_EQ(faulty.shards.size(), shards);
  EXPECT_EQ(faulty.shards[0].degraded_blocks, 1u);
  EXPECT_EQ(faulty.shards[0].retry_attempts, 2u);
  for (std::size_t s = 1; s < shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(faulty.shards[s].degraded_blocks, 0u);
    EXPECT_EQ(faulty.shards[s].retry_attempts, 0u);
  }
}

TEST(ShardEquivalenceFaults, OneShardFallsToCpuWhileSiblingsStayFine) {
  for (const std::size_t shards : {1u, 2u, 4u})
    expect_one_shard_falls_to_cpu(shards);
}

TEST(ShardEquivalenceHazards, AnalyzersFindNothingInShardedMode) {
  // simtcheck across every shard engine plus the svccheck checkpoint walk
  // over the fleet path: a clean fleet search reports zero hazards with a
  // nonzero amount of checked work.
  const auto w = make_workload();
  auto config = base_config(/*shards=*/4, /*engine_workers=*/4);
  config.simtcheck = true;
  config.svccheck = true;

  core::SearchSession fleet(config, w.db);
  const auto report = fleet.search(w.query);
  EXPECT_EQ(report.hazards.total, 0u);
  EXPECT_GT(report.hazards.collectives_checked, 0u);

  simt::HazardReport leaks;
  EXPECT_EQ(fleet.leak_check(leaks), 0u);
}

TEST(ShardAllVsAll, DelegatesToBatchWithDatabaseQueries) {
  const auto w = make_workload(24, 1);
  auto config = base_config(/*shards=*/2);
  core::SearchSession fleet(config, w.db);

  const auto all = fleet.search_all_vs_all(/*limit=*/3);
  ASSERT_EQ(all.reports.size(), 3u);
  EXPECT_EQ(all.shards, 2u);

  // Each report matches searching the corresponding database sequence.
  core::SearchSession single(base_config(1), w.db);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const auto residues = w.db.residues(i);
    const auto baseline = single.search(
        std::span<const std::uint8_t>(residues.data(), residues.size()));
    expect_reports_equal(baseline, all.reports[i]);
  }

  // limit = 0 means every sequence.
  const auto everything = fleet.search_all_vs_all();
  EXPECT_EQ(everything.reports.size(), w.db.size());
}

}  // namespace
}  // namespace repro
