// Fault injection and the degradation ladder.
//
// The contract under test (DESIGN.md §9): for any seeded fault schedule
// that does not exhaust the whole ladder, a cuBLASTP search returns
// alignments bit-identical to the fault-free run, and the SearchReport's
// degradation counters say exactly how hard the pipeline had to fight.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bio/generator.hpp"
#include "core/cublastp.hpp"
#include "core/pipeline.hpp"
#include "core/query_context.hpp"
#include "core/search_session.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"

namespace repro {
namespace {

// --- FaultInjector unit tests ---------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tests own the process-wide injector; start from a clean slate.
    ::unsetenv("REPRO_FAULTS");
    util::FaultInjector::instance().clear();
  }
  void TearDown() override { util::FaultInjector::instance().clear(); }
};

TEST_F(FaultInjectorTest, DisabledByDefault) {
  EXPECT_FALSE(util::FaultInjector::instance().enabled());
  EXPECT_FALSE(util::fault_point("anything"));
  EXPECT_EQ(util::FaultInjector::instance().hits("anything"), 0u);
}

TEST_F(FaultInjectorTest, NthFiresExactlyOnce) {
  util::FaultInjector::instance().configure("p:nth=3", 1);
  EXPECT_FALSE(util::fault_point("p"));
  EXPECT_FALSE(util::fault_point("p"));
  EXPECT_TRUE(util::fault_point("p"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(util::fault_point("p"));
  EXPECT_EQ(util::FaultInjector::instance().hits("p"), 13u);
  EXPECT_EQ(util::FaultInjector::instance().fires("p"), 1u);
}

TEST_F(FaultInjectorTest, EveryFiresPeriodically) {
  util::FaultInjector::instance().configure("p:every=3", 1);
  int fires = 0;
  for (int i = 1; i <= 12; ++i) {
    const bool fired = util::fault_point("p");
    EXPECT_EQ(fired, i % 3 == 0) << "hit " << i;
    fires += fired;
  }
  EXPECT_EQ(fires, 4);
}

TEST_F(FaultInjectorTest, MaxCapsFires) {
  util::FaultInjector::instance().configure("p:every=1,max=2", 1);
  int fires = 0;
  for (int i = 0; i < 10; ++i) fires += util::fault_point("p");
  EXPECT_EQ(fires, 2);
}

TEST_F(FaultInjectorTest, UnlistedPointsNeverFire) {
  util::FaultInjector::instance().configure("p:every=1", 1);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(util::fault_point("q"));
}

TEST_F(FaultInjectorTest, CountOnlyRuleObservesWithoutFiring) {
  util::FaultInjector::instance().configure("p:nth=0", 1);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(util::fault_point("p"));
  EXPECT_EQ(util::FaultInjector::instance().hits("p"), 7u);
  EXPECT_EQ(util::FaultInjector::instance().fires("p"), 0u);
}

TEST_F(FaultInjectorTest, ProbabilityIsAPureFunctionOfSeedAndHit) {
  const auto draw_sequence = [](std::uint64_t seed) {
    util::FaultInjector::instance().configure("p:prob=0.5", seed);
    std::string decisions;
    for (int i = 0; i < 200; ++i)
      decisions.push_back(util::fault_point("p") ? '1' : '0');
    return decisions;
  };
  const auto a = draw_sequence(42);
  const auto b = draw_sequence(42);
  const auto c = draw_sequence(43);
  EXPECT_EQ(a, b);  // same seed -> identical schedule, thread timing aside
  EXPECT_NE(a, c);  // different seed -> different schedule
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST_F(FaultInjectorTest, MalformedSchedulesThrow) {
  auto& injector = util::FaultInjector::instance();
  EXPECT_THROW(injector.configure("nocolon", 1), std::invalid_argument);
  EXPECT_THROW(injector.configure(":nth=1", 1), std::invalid_argument);
  EXPECT_THROW(injector.configure("p:bogus=1", 1), std::invalid_argument);
  EXPECT_THROW(injector.configure("p:nth=abc", 1), std::invalid_argument);
  EXPECT_THROW(injector.configure("p:prob=1.5", 1), std::invalid_argument);
  // A failed configure must not leave a half-installed schedule behind.
  EXPECT_FALSE(injector.enabled());
}

TEST_F(FaultInjectorTest, FaultScopeRestoresDisabledBaseline) {
  {
    util::FaultScope scope("p:every=1", 9);
    EXPECT_TRUE(util::FaultInjector::instance().enabled());
    EXPECT_TRUE(util::fault_point("p"));
  }
  EXPECT_FALSE(util::FaultInjector::instance().enabled());
}

TEST_F(FaultInjectorTest, FaultPointThrowRaisesTypedError) {
  util::FaultInjector::instance().configure("p:nth=1", 1);
  try {
    util::fault_point_throw("p");
    FAIL() << "expected FaultInjectedError";
  } catch (const util::FaultInjectedError& e) {
    EXPECT_EQ(e.point(), "p");
  }
}

// --- Chaos equivalence: the degradation ladder ----------------------------

struct Workload {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
};

Workload make_workload(std::uint64_t seed) {
  Workload w;
  w.query = bio::make_benchmark_query(127).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(50);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, seed);
  w.db = gen.generate(w.query);
  return w;
}

core::Config chaos_config() {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;
  config.bin_capacity = 64;
  // Keep forced-overflow exhaustion cheap: the growth loop gives up after
  // 6 doublings / 4096 slots per bin instead of allocating its way to the
  // production ceiling.
  config.max_bin_retries = 6;
  config.max_bin_capacity = 4096;
  return config;
}

class ChaosEquivalence : public FaultInjectorTest {};

std::uint32_t failed_attempts(const core::SearchReport& report) {
  std::uint32_t sum = 0;
  for (const auto r : report.retry_counts) sum += r;
  return sum;
}

TEST_F(ChaosEquivalence, FaultFreeSearchReportsCleanLadder) {
  const auto w = make_workload(101);
  const auto report = core::CuBlastp(chaos_config()).search(w.query, w.db);
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.degraded_blocks, 0u);
  EXPECT_EQ(report.cache_off_retries, 0u);
  EXPECT_EQ(report.faults_encountered, 0u);
  ASSERT_EQ(report.retry_counts.size(), 3u);
  EXPECT_EQ(failed_attempts(report), 0u);
}

TEST_F(ChaosEquivalence, ForcedBinOverflowPreservesOutput) {
  const auto w = make_workload(101);
  auto config = chaos_config();
  const auto reference = core::CuBlastp(config).search(w.query, w.db);

  // Schedule 1: the first detection launch reports overflow; the bounded
  // capacity-growth loop must absorb it without failing the attempt.
  config.fault_schedule = "core.bin_overflow:nth=1";
  config.fault_seed = 7;
  const auto faulty = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_EQ(faulty.faults_encountered, 1u);
  EXPECT_GE(faulty.bin_overflow_retries,
            reference.bin_overflow_retries + 1);
  EXPECT_EQ(faulty.degraded_blocks, 0u);
  EXPECT_EQ(failed_attempts(faulty), 0u);
}

TEST_F(ChaosEquivalence, SortFromAGridGrownPast1024) {
  // Five forced overflows grow the bins from 64 to 2048 slots before the
  // first block's detection holds: K3 and K4 then read every bin from a
  // row that far into the grown grid, and the search must not notice.
  const auto w = make_workload(107);
  auto config = chaos_config();
  const auto reference = core::CuBlastp(config).search(w.query, w.db);

  config.fault_schedule = "core.bin_overflow:every=1,max=5";
  config.fault_seed = 11;
  const auto grown = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, grown.result.alignments);
  EXPECT_EQ(reference.result.counters.hits_after_filter,
            grown.result.counters.hits_after_filter);
  EXPECT_EQ(grown.faults_encountered, 5u);
  EXPECT_GE(grown.bin_overflow_retries, reference.bin_overflow_retries + 5);
  EXPECT_EQ(grown.degraded_blocks, 0u);
  EXPECT_EQ(failed_attempts(grown), 0u);
}

TEST_F(ChaosEquivalence, AllocationFaultAbsorbedByCacheOffRetry) {
  const auto w = make_workload(103);
  auto config = chaos_config();

  // Count device allocations in a fault-free run (nth=0 observes only),
  // then fail the last one — deterministically inside the final block's
  // GPU attempt, well past query preprocessing.
  core::SearchReport reference;
  std::uint64_t total_allocs = 0;
  {
    util::FaultScope scope("simt.alloc:nth=0", 1);
    reference = core::CuBlastp(config).search(w.query, w.db);
    total_allocs = util::FaultInjector::instance().hits("simt.alloc");
  }
  ASSERT_GT(total_allocs, 0u);

  // Schedule 2: std::bad_alloc out of the device allocator.
  config.fault_schedule =
      "simt.alloc:nth=" + std::to_string(total_allocs);
  const auto faulty = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_EQ(faulty.faults_encountered, 1u);
  EXPECT_EQ(faulty.cache_off_retries, 1u);
  EXPECT_EQ(faulty.degraded_blocks, 0u);
  EXPECT_EQ(failed_attempts(faulty), 1u);
}

TEST_F(ChaosEquivalence, GridAllocationFaultAbsorbedByCacheOffRetry) {
  const auto w = make_workload(119);
  const auto config = core::normalized_config(chaos_config());
  const std::uint64_t base_resident =
      simt::device_allocation_stats().resident_allocations;

  // Count the device allocations a search makes before its first block
  // attempt, fault-free: the query's device image and block 0's upload.
  // The next one is the session's bin grid.
  std::uint64_t before_grid = 0;
  {
    util::FaultScope scope("simt.alloc:nth=0", 1);
    const core::QueryContext ctx(w.query, w.db, config);
    core::BlockResidency residency(w.db, w.db.split_blocks(config.db_blocks));
    simt::Engine engine;
    (void)residency.ensure(engine, 0);
    before_grid = util::FaultInjector::instance().hits("simt.alloc");
  }
  ASSERT_GT(before_grid, 0u);

  core::SearchReport reference;
  std::uint64_t reference_allocs = 0;
  std::uint64_t reference_resident = 0;
  {
    util::FaultScope scope("simt.alloc:nth=0", 1);
    core::SearchSession session(config, w.db);
    reference = session.search(w.query);
    reference_allocs = util::FaultInjector::instance().hits("simt.alloc");
    reference_resident =
        simt::device_allocation_stats().resident_allocations - base_resident;
  }

  core::SearchSession session(config, w.db);
  core::SearchReport faulty;
  {
    util::FaultScope scope("simt.alloc:nth=" + std::to_string(before_grid + 1),
                           1);
    faulty = session.search(w.query);
    // One allocation more than fault-free: the one that failed was the
    // first of block 0's attempt, before any kernel ran.
    EXPECT_EQ(util::FaultInjector::instance().hits("simt.alloc"),
              reference_allocs + 1);
  }
  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_EQ(faulty.faults_encountered, 1u);
  EXPECT_EQ(faulty.cache_off_retries, 1u);
  EXPECT_EQ(faulty.degraded_blocks, 0u);
  EXPECT_EQ(failed_attempts(faulty), 1u);

  // The cache-off retry allocated the grid itself, and nothing half-built
  // stayed behind: the session holds what a fault-free one does.
  const core::BinGrid* grid = session.shard(0).bin_grid();
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(simt::device_allocation_stats().resident_allocations -
                base_resident,
            reference_resident);
  const std::uint64_t* slots = grid->slots.data();
  const auto later = session.search(w.query);
  EXPECT_EQ(later.result.alignments, reference.result.alignments);
  EXPECT_EQ(session.shard(0).bin_grid(), grid);
  EXPECT_EQ(grid->slots.data(), slots);
}

TEST_F(ChaosEquivalence, TransferFaultAbsorbedByCacheOffRetry) {
  const auto w = make_workload(105);
  auto config = chaos_config();
  const auto reference = core::CuBlastp(config).search(w.query, w.db);

  // Schedule 3: transfer hit 1 is the query H2D (outside the ladder), hit
  // 2 is block 0's H2D — fail that one.
  config.fault_schedule = "simt.transfer:nth=2";
  const auto faulty = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_EQ(faulty.faults_encountered, 1u);
  EXPECT_EQ(faulty.cache_off_retries, 1u);
  EXPECT_EQ(faulty.degraded_blocks, 0u);
}

TEST_F(ChaosEquivalence, LaunchFaultAbsorbedByCacheOffRetry) {
  const auto w = make_workload(107);
  auto config = chaos_config();
  const auto reference = core::CuBlastp(config).search(w.query, w.db);

  // Schedule 4: the first kernel launch (block 0's detection) fails.
  config.fault_schedule = "simt.launch:nth=1";
  const auto faulty = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_EQ(faulty.faults_encountered, 1u);
  EXPECT_EQ(faulty.cache_off_retries, 1u);
  EXPECT_EQ(faulty.degraded_blocks, 0u);
}

TEST_F(ChaosEquivalence, WorkerExceptionAbsorbedByCacheOffRetry) {
  const auto w = make_workload(109);
  auto config = chaos_config();
  config.engine_workers = 2;  // kernel launches run on SM-sharded workers
  const auto reference = core::CuBlastp(config).search(w.query, w.db);

  // Schedule 5: the first sharded worker task dies mid-launch.
  config.fault_schedule = "util.worker:nth=1";
  const auto faulty = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_EQ(faulty.faults_encountered, 1u);
  EXPECT_EQ(faulty.cache_off_retries, 1u);
  EXPECT_EQ(faulty.degraded_blocks, 0u);
}

TEST_F(ChaosEquivalence, FullDegradationStillBitIdentical) {
  const auto w = make_workload(111);
  auto config = chaos_config();
  const auto reference = core::CuBlastp(config).search(w.query, w.db);

  // Every detection overflows forever: both GPU rungs exhaust their caps
  // for every block and the CPU fallback serves the whole database. The
  // alignments must not change.
  config.fault_schedule = "core.bin_overflow:every=1";
  const auto faulty = core::CuBlastp(config).search(w.query, w.db);

  EXPECT_EQ(reference.result.alignments, faulty.result.alignments);
  EXPECT_TRUE(faulty.degraded());
  EXPECT_EQ(faulty.degraded_blocks, 3u);
  EXPECT_EQ(faulty.cache_off_retries, 3u);
  ASSERT_EQ(faulty.retry_counts.size(), 3u);
  for (const auto r : faulty.retry_counts) EXPECT_EQ(r, 2u);
  EXPECT_GE(faulty.faults_encountered, 6u);
}

TEST_F(ChaosEquivalence, LadderExhaustionSurfacesStructuredError) {
  const auto w = make_workload(113);
  auto config = chaos_config();
  config.fault_schedule =
      "core.bin_overflow:every=1;core.cpu_fallback:every=1";
  try {
    (void)core::CuBlastp(config).search(w.query, w.db);
    FAIL() << "expected SearchError";
  } catch (const core::SearchError& e) {
    EXPECT_EQ(e.code(), core::SearchErrorCode::kDegradationExhausted);
    EXPECT_NE(std::string(e.what()).find("degradation_exhausted"),
              std::string::npos);
  }
}

TEST_F(ChaosEquivalence, BoundedRetryCapsSurfaceAsSearchError) {
  // Unit-level check of satellite 1: with the ladder's later rungs also
  // failing, the bounded overflow loop's SearchError escapes intact.
  const auto w = make_workload(115);
  auto config = chaos_config();
  config.max_bin_retries = 1;
  config.fault_schedule =
      "core.bin_overflow:every=1;core.cpu_fallback:every=1";
  EXPECT_THROW((void)core::CuBlastp(config).search(w.query, w.db),
               core::SearchError);
}

TEST_F(ChaosEquivalence, ConfigScheduleDoesNotLeakOutOfSearch) {
  const auto w = make_workload(117);
  auto config = chaos_config();
  config.fault_schedule = "core.bin_overflow:nth=1";
  (void)core::CuBlastp(config).search(w.query, w.db);
  EXPECT_FALSE(util::FaultInjector::instance().enabled());
}

}  // namespace
}  // namespace repro
