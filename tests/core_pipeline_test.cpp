// Integration tests for the cuBLASTP engine: the paper's correctness
// anchor is that its output is IDENTICAL to FSA-BLAST's (§4.3), across all
// three extension strategies, both scoring structures, read-only cache
// on/off, and every bin count of Fig. 14.
#include <gtest/gtest.h>

#include "baselines/cpu.hpp"
#include "bio/generator.hpp"
#include "core/cublastp.hpp"
#include "core/kernels.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
};

Workload make_workload(std::size_t query_len, std::size_t num_seqs,
                       std::uint64_t seed) {
  Workload w;
  w.query = bio::make_benchmark_query(query_len).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, seed);
  w.db = gen.generate(w.query);
  return w;
}

core::Config base_config() {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;  // keep the simulated grid small for tests
  config.bin_capacity = 64;     // exercises the overflow-retry path too
  return config;
}

class StrategySweep
    : public ::testing::TestWithParam<core::ExtensionStrategy> {};

TEST_P(StrategySweep, OutputIdenticalToFsaBlast) {
  const auto w = make_workload(127, 60, 11);
  auto config = base_config();
  config.strategy = GetParam();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = core::CuBlastp(config).search(w.query, w.db);
  EXPECT_EQ(reference.alignments, report.result.alignments);
  ASSERT_FALSE(report.result.alignments.empty());
}

TEST_P(StrategySweep, MediumQueryIdenticalToFsaBlast) {
  const auto w = make_workload(517, 40, 13);
  auto config = base_config();
  config.strategy = GetParam();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = core::CuBlastp(config).search(w.query, w.db);
  EXPECT_EQ(reference.alignments, report.result.alignments);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySweep,
                         ::testing::Values(core::ExtensionStrategy::kDiagonal,
                                           core::ExtensionStrategy::kHit,
                                           core::ExtensionStrategy::kWindow));

class BinSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinSweep, OutputInvariantToBinCount) {
  // Paper Fig. 14 varies bins/warp from 32 to 256; results must not change.
  const auto w = make_workload(127, 50, 17);
  auto config = base_config();
  config.num_bins_per_warp = GetParam();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = core::CuBlastp(config).search(w.query, w.db);
  EXPECT_EQ(reference.alignments, report.result.alignments);
}

INSTANTIATE_TEST_SUITE_P(Bins, BinSweep, ::testing::Values(32, 64, 128, 256));

class ScoringSweep : public ::testing::TestWithParam<core::ScoringMode> {};

TEST_P(ScoringSweep, OutputInvariantToScoringStructure) {
  const auto w = make_workload(300, 40, 19);
  auto config = base_config();
  config.scoring = GetParam();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = core::CuBlastp(config).search(w.query, w.db);
  EXPECT_EQ(reference.alignments, report.result.alignments);
}

INSTANTIATE_TEST_SUITE_P(Scoring, ScoringSweep,
                         ::testing::Values(core::ScoringMode::kAuto,
                                           core::ScoringMode::kPssm,
                                           core::ScoringMode::kBlosum));

TEST(CuBlastp, ReadOnlyCacheTogglePreservesOutput) {
  const auto w = make_workload(127, 40, 23);
  auto with = base_config();
  with.use_readonly_cache = true;
  auto without = base_config();
  without.use_readonly_cache = false;
  const auto a = core::CuBlastp(with).search(w.query, w.db);
  const auto b = core::CuBlastp(without).search(w.query, w.db);
  EXPECT_EQ(a.result.alignments, b.result.alignments);
  // And the cache must actually have been exercised / silent respectively.
  EXPECT_GT(a.profile.at(core::kKernelDetection).rocache_hits, 0u);
  EXPECT_EQ(b.profile.at(core::kKernelDetection).rocache_hits, 0u);
}

TEST(CuBlastp, BlockCountInvariance) {
  const auto w = make_workload(127, 55, 29);
  auto reference_config = base_config();
  reference_config.db_blocks = 1;
  const auto reference =
      core::CuBlastp(reference_config).search(w.query, w.db);
  for (const std::size_t blocks : {2u, 5u, 16u}) {
    auto config = base_config();
    config.db_blocks = blocks;
    const auto report = core::CuBlastp(config).search(w.query, w.db);
    EXPECT_EQ(reference.result.alignments, report.result.alignments)
        << blocks << " blocks";
  }
}

TEST(CuBlastp, WindowSizeInvariance) {
  const auto w = make_workload(127, 40, 31);
  blast::SearchParams params;
  const auto reference = baselines::fsa_blast_search(w.query, w.db, params);
  for (const int ws : {4, 8, 16}) {
    auto config = base_config();
    config.strategy = core::ExtensionStrategy::kWindow;
    config.window_size = ws;
    const auto report = core::CuBlastp(config).search(w.query, w.db);
    EXPECT_EQ(reference.alignments, report.result.alignments)
        << "window size " << ws;
  }
}

TEST(CuBlastp, OverflowRetryProducesSameOutput) {
  const auto w = make_workload(127, 40, 37);
  auto tiny = base_config();
  tiny.bin_capacity = 4;  // guaranteed overflow
  auto roomy = base_config();
  roomy.bin_capacity = 4096;
  const auto a = core::CuBlastp(tiny).search(w.query, w.db);
  const auto b = core::CuBlastp(roomy).search(w.query, w.db);
  EXPECT_GT(a.bin_overflow_retries, 0u);
  EXPECT_EQ(b.bin_overflow_retries, 0u);
  EXPECT_EQ(a.result.alignments, b.result.alignments);
}

// Compares two searches field by field. Search results and every
// address-independent profile counter must be bit-identical. Counters that
// depend on where malloc happened to place a buffer — 32-byte-sector
// transaction splits, per-set read-only-cache hit/miss outcomes, and the
// modeled times derived from them — are compared as invariant sums instead:
// two *serial* runs of the same search already differ in those (allocator
// reuse between calls is not byte-identical), so they cannot distinguish
// serial from sharded execution. Full bit-identity of every counter,
// including cache and timing, is asserted at the engine level in
// engine_parallel_test.cpp, where both runs share one set of buffers.
void expect_reports_bit_identical(const core::SearchReport& a,
                                  const core::SearchReport& b) {
  EXPECT_EQ(a.result.alignments, b.result.alignments);
  EXPECT_EQ(a.result.counters.words_scanned, b.result.counters.words_scanned);
  EXPECT_EQ(a.result.counters.hits_detected, b.result.counters.hits_detected);
  EXPECT_EQ(a.result.counters.hits_after_filter,
            b.result.counters.hits_after_filter);
  EXPECT_EQ(a.result.counters.ungapped_extensions,
            b.result.counters.ungapped_extensions);
  EXPECT_EQ(a.result.counters.gapped_extensions,
            b.result.counters.gapped_extensions);
  EXPECT_EQ(a.result.counters.tracebacks, b.result.counters.tracebacks);
  EXPECT_EQ(a.bin_overflow_retries, b.bin_overflow_retries);
  // Per-kernel profile (Fig. 19 inputs).
  const auto& ka = a.profile.kernels();
  const auto& kb = b.profile.kernels();
  ASSERT_EQ(ka.size(), kb.size());
  auto ita = ka.begin();
  auto itb = kb.begin();
  for (; ita != ka.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    const auto& sa = ita->second;
    const auto& sb = itb->second;
    EXPECT_EQ(sa.vec_ops, sb.vec_ops) << ita->first;
    EXPECT_EQ(sa.active_lane_sum, sb.active_lane_sum) << ita->first;
    EXPECT_EQ(sa.ld_requests, sb.ld_requests) << ita->first;
    EXPECT_EQ(sa.ld_bytes_requested, sb.ld_bytes_requested) << ita->first;
    EXPECT_EQ(sa.st_requests, sb.st_requests) << ita->first;
    EXPECT_EQ(sa.st_bytes_requested, sb.st_bytes_requested) << ita->first;
    // Every read-only-cache lookup happens regardless of hit/miss, so the
    // total is an address-independent invariant.
    EXPECT_EQ(sa.rocache_hits + sa.rocache_misses,
              sb.rocache_hits + sb.rocache_misses)
        << ita->first;
    EXPECT_EQ(sa.shared_ops, sb.shared_ops) << ita->first;
    EXPECT_EQ(sa.shared_conflict_passes, sb.shared_conflict_passes)
        << ita->first;
    EXPECT_EQ(sa.atomic_ops, sb.atomic_ops) << ita->first;
    EXPECT_EQ(sa.atomic_serial_passes, sb.atomic_serial_passes) << ita->first;
    EXPECT_EQ(sa.num_blocks, sb.num_blocks) << ita->first;
    EXPECT_EQ(sa.shared_bytes, sb.shared_bytes) << ita->first;
    EXPECT_EQ(sa.occupancy, sb.occupancy) << ita->first;
  }
}

TEST(CuBlastp, EngineWorkersBitIdenticalToSerial) {
  // The SM-sharded parallel engine invariant: any worker count reproduces
  // the serial run exactly — results, counters, and profile metrics.
  const auto w = make_workload(127, 60, 23);
  const auto config = base_config();
  const auto serial = core::CuBlastp(config).search(w.query, w.db);
  ASSERT_FALSE(serial.result.alignments.empty());
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("engine_workers=" + std::to_string(workers));
    auto cfg = config;
    cfg.engine_workers = workers;
    const auto parallel = core::CuBlastp(cfg).search(w.query, w.db);
    expect_reports_bit_identical(serial, parallel);
  }
}

TEST_P(StrategySweep, EngineWorkersInvariantAcrossStrategies) {
  const auto w = make_workload(127, 50, 29);
  auto config = base_config();
  config.strategy = GetParam();
  const auto serial = core::CuBlastp(config).search(w.query, w.db);
  config.engine_workers = 4;
  const auto parallel = core::CuBlastp(config).search(w.query, w.db);
  expect_reports_bit_identical(serial, parallel);
}

TEST(CuBlastp, OverflowRetryUnderParallelEngine) {
  // The overflow counter is the one cross-block global atomic; the retry
  // loop must behave identically when blocks run on several workers.
  const auto w = make_workload(127, 40, 37);
  auto tiny = base_config();
  tiny.bin_capacity = 4;  // guaranteed overflow
  auto tiny_parallel = tiny;
  tiny_parallel.engine_workers = 4;
  const auto serial = core::CuBlastp(tiny).search(w.query, w.db);
  const auto parallel = core::CuBlastp(tiny_parallel).search(w.query, w.db);
  EXPECT_GT(parallel.bin_overflow_retries, 0u);
  expect_reports_bit_identical(serial, parallel);
}

TEST(CuBlastp, CountersMatchFsaBaseline) {
  const auto w = make_workload(127, 60, 41);
  auto config = base_config();
  config.strategy = core::ExtensionStrategy::kDiagonal;
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = core::CuBlastp(config).search(w.query, w.db);
  EXPECT_EQ(reference.counters.words_scanned,
            report.result.counters.words_scanned);
  EXPECT_EQ(reference.counters.hits_detected,
            report.result.counters.hits_detected);
  // Diagonal-based extension runs exactly the extensions the interleaved
  // baseline triggers.
  EXPECT_EQ(reference.counters.ungapped_extensions,
            report.result.counters.ungapped_extensions);
  EXPECT_EQ(reference.counters.gapped_extensions,
            report.result.counters.gapped_extensions);
  EXPECT_EQ(reference.counters.tracebacks, report.result.counters.tracebacks);
}

TEST(CuBlastp, FilterSurvivalRatioInPaperRange) {
  // Paper §3.3: 5-11% of detected hits survive filtering. Measured on a
  // workload with a realistic homology density (the make_workload helper
  // plants 8% homologs, which inflates the ratio; use 2% here).
  Workload w;
  w.query = bio::make_benchmark_query(517).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(150);
  bio::DatabaseGenerator gen(profile, 43);
  w.db = gen.generate(w.query);
  const auto report = core::CuBlastp(base_config()).search(w.query, w.db);
  const double ratio = report.result.counters.filter_survival_ratio();
  // Our synthetic residue model yields a somewhat higher ratio than the
  // paper's real NCBI data (real proteins cluster hits inside extensions);
  // the order of magnitude — a small minority of hits — is what matters.
  EXPECT_GT(ratio, 0.01);
  EXPECT_LT(ratio, 0.30);
}

TEST(CuBlastp, HitBasedRunsMoreExtensionsThanDiagonal) {
  // The redundant computation of Algorithm 4 must be visible in the
  // counters (it is the trade-off paper §3.4 discusses).
  const auto w = make_workload(127, 60, 47);
  auto diagonal = base_config();
  diagonal.strategy = core::ExtensionStrategy::kDiagonal;
  auto hit = base_config();
  hit.strategy = core::ExtensionStrategy::kHit;
  const auto a = core::CuBlastp(diagonal).search(w.query, w.db);
  const auto b = core::CuBlastp(hit).search(w.query, w.db);
  EXPECT_GE(b.result.counters.ungapped_extensions,
            a.result.counters.ungapped_extensions);
  EXPECT_EQ(a.result.alignments, b.result.alignments);
}

TEST(CuBlastp, ProfileContainsAllKernels) {
  const auto w = make_workload(127, 40, 53);
  const auto report = core::CuBlastp(base_config()).search(w.query, w.db);
  for (const char* kernel :
       {core::kKernelDetection, core::kKernelAssemble, core::kKernelScan,
        core::kKernelSort, core::kKernelFilter, core::kKernelExtension}) {
    ASSERT_TRUE(report.profile.has(kernel)) << kernel;
    EXPECT_GT(report.profile.at(kernel).vec_ops, 0u) << kernel;
    EXPECT_GT(report.profile.at(kernel).time_ms, 0.0) << kernel;
  }
}

TEST(CuBlastp, DeviceTimeCoversEveryProfileRow) {
  // gpu_critical_ms() sums kernel rows by name: a kernel launched under a
  // name it does not know would drop out of the device time unnoticed.
  const auto w = make_workload(127, 40, 53);
  for (const auto strategy :
       {core::ExtensionStrategy::kDiagonal, core::ExtensionStrategy::kHit,
        core::ExtensionStrategy::kWindow}) {
    auto config = base_config();
    config.strategy = strategy;
    const auto report = core::CuBlastp(config).search(w.query, w.db);
    const double total = report.profile.total_time_ms();
    ASSERT_GT(total, 0.0);
    EXPECT_NEAR(report.gpu_critical_ms() + report.h2d_ms + report.d2h_ms,
                total, 1e-12 * total)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(CuBlastp, FineGrainedKernelsAreMostlyCoalesced) {
  // Fig. 19a: the fine-grained kernels achieve far better load efficiency
  // than the coarse baselines; detection/sort/filter should be well over
  // the paper's coarse-kernel 5-12%.
  const auto w = make_workload(517, 60, 59);
  const auto report = core::CuBlastp(base_config()).search(w.query, w.db);
  EXPECT_GT(report.profile.at(core::kKernelSort).global_load_efficiency(),
            0.35);  // paper Fig. 19a reports 46.2% for hit sorting
  EXPECT_GT(report.profile.at(core::kKernelFilter).global_load_efficiency(),
            0.4);
  EXPECT_GT(
      report.profile.at(core::kKernelDetection).global_load_efficiency(),
      0.2);
}

TEST(CuBlastp, PipelineOverlapNeverWorseThanSerial) {
  const auto w = make_workload(127, 60, 61);
  const auto report = core::CuBlastp(base_config()).search(w.query, w.db);
  EXPECT_LE(report.overlapped_total_seconds,
            report.serial_total_seconds + 1e-9);
  EXPECT_GT(report.overlapped_total_seconds, 0.0);
}

TEST(CuBlastp, RejectsOversizedSequences) {
  auto config = base_config();
  std::vector<std::uint8_t> long_query(40000, 0);
  bio::SequenceDatabase db;
  try {
    (void)core::CuBlastp(config).search(long_query, db);
    FAIL() << "expected core::SearchError";
  } catch (const core::SearchError& e) {
    EXPECT_EQ(e.code(), core::SearchErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("invalid_argument"),
              std::string::npos);
  }
}

TEST(CuBlastp, RejectsNonPowerOfTwoBins) {
  auto config = base_config();
  config.num_bins_per_warp = 100;
  EXPECT_THROW(core::CuBlastp{config}, std::invalid_argument);
}

TEST(CuBlastp, EmptyDatabase) {
  const auto query = bio::make_benchmark_query(127).residues;
  bio::SequenceDatabase db;
  const auto report = core::CuBlastp(base_config()).search(query, db);
  EXPECT_TRUE(report.result.alignments.empty());
}

TEST(CuBlastp, OneHitModeMatchesOneHitBaseline) {
  const auto w = make_workload(127, 40, 67);
  auto config = base_config();
  config.params.one_hit = true;
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = core::CuBlastp(config).search(w.query, w.db);
  EXPECT_EQ(reference.alignments, report.result.alignments);
}

}  // namespace
}  // namespace repro
