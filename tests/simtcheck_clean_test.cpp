// SimtCheckClean: every production kernel — hit detection, binning/
// sorting/filtering, all three ungapped-extension strategies, the SSV
// pre-filter, the gapped ablation kernel, and both coarse-grained
// baselines — must run under the simtcheck hazard analyzer with zero
// findings, serial and SM-sharded.
// The analyzer's false-positive budget is zero, and a regression that
// introduces a real hazard (like the divergent scan it caught in
// emit_records) fails here before it ships.
//
// Also pins the disabled-mode contract: running with the checker on must
// not perturb results or any measured metric (bit-identical KernelStats).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baselines/coarse_gpu.hpp"
#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "bio/karlin.hpp"
#include "core/cublastp.hpp"
#include "core/device_data.hpp"
#include "core/gapped_kernel.hpp"
#include "core/kernels.hpp"
#include "core/prefilter.hpp"
#include "flat_list_reference.hpp"
#include "gpualgo/segsort.hpp"
#include "simt/device_buffer.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

struct PipelineFixture {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;

  PipelineFixture() {
    query = bio::make_benchmark_query(150).residues;
    auto profile = bio::DatabaseProfile::swissprot_like(50);
    profile.homolog_fraction = 0.25;
    bio::DatabaseGenerator gen(profile, 4242);
    db = gen.generate(query);
  }
};

void expect_same_result(const blast::SearchResult& a,
                        const blast::SearchResult& b) {
  ASSERT_EQ(a.alignments.size(), b.alignments.size());
  for (std::size_t i = 0; i < a.alignments.size(); ++i) {
    EXPECT_EQ(a.alignments[i].seq, b.alignments[i].seq) << "alignment " << i;
    EXPECT_EQ(a.alignments[i].bit_score, b.alignments[i].bit_score)
        << "alignment " << i;
  }
}

// `address_free` additionally compares the quantities that depend on
// absolute heap addresses: the read-only cache is direct-mapped over real
// pointers, so the checker's own allocations shifting the heap layout can
// legitimately change its conflict pattern (and the modeled time derived
// from it) — the same way cuda-memcheck perturbs caches and timing on real
// hardware. Every other counter depends only on offsets within 128-byte-
// aligned device buffers and must be bit-identical.
void expect_same_stats(const simt::KernelStats& a, const simt::KernelStats& b,
                       bool address_free) {
  EXPECT_EQ(a.vec_ops, b.vec_ops) << a.name;
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum) << a.name;
  EXPECT_EQ(a.ld_requests, b.ld_requests) << a.name;
  EXPECT_EQ(a.ld_bytes_requested, b.ld_bytes_requested) << a.name;
  EXPECT_EQ(a.st_requests, b.st_requests) << a.name;
  EXPECT_EQ(a.st_bytes_requested, b.st_bytes_requested) << a.name;
  EXPECT_EQ(a.st_transactions, b.st_transactions) << a.name;
  EXPECT_EQ(a.shared_ops, b.shared_ops) << a.name;
  EXPECT_EQ(a.shared_conflict_passes, b.shared_conflict_passes) << a.name;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << a.name;
  EXPECT_EQ(a.atomic_serial_passes, b.atomic_serial_passes) << a.name;
  EXPECT_EQ(a.simtcheck_hazards, b.simtcheck_hazards) << a.name;
  EXPECT_EQ(a.num_blocks, b.num_blocks) << a.name;
  EXPECT_EQ(a.block_threads, b.block_threads) << a.name;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << a.name;
  EXPECT_EQ(a.occupancy, b.occupancy) << a.name;
  if (address_free) {
    // Loads through the read-only cache only count a transaction on a
    // miss, so ld_transactions inherits the cache's address sensitivity.
    EXPECT_EQ(a.ld_transactions, b.ld_transactions) << a.name;
    EXPECT_EQ(a.rocache_hits, b.rocache_hits) << a.name;
    EXPECT_EQ(a.rocache_misses, b.rocache_misses) << a.name;
    EXPECT_EQ(a.time_ms, b.time_ms) << a.name;
  }
}

TEST(SimtCheckClean, PipelineAllStrategiesAndWorkerCounts) {
  const PipelineFixture fx;
  for (const auto strategy :
       {core::ExtensionStrategy::kWindow, core::ExtensionStrategy::kDiagonal,
        core::ExtensionStrategy::kHit}) {
    core::Config baseline_config;
    baseline_config.strategy = strategy;
    const auto baseline =
        core::CuBlastp(baseline_config).search(fx.query, fx.db);
    EXPECT_EQ(baseline.hazards.total, 0u);  // checker off: nothing recorded

    for (const int workers : {1, 4}) {
      core::Config config;
      config.strategy = strategy;
      config.simtcheck = true;
      config.engine_workers = workers;
      const auto report = core::CuBlastp(config).search(fx.query, fx.db);
      EXPECT_EQ(report.hazards.total, 0u)
          << "strategy " << static_cast<int>(strategy) << " workers "
          << workers << "\n"
          << report.hazards.summary();
      EXPECT_GT(report.hazards.collectives_checked, 0u);
      expect_same_result(baseline.result, report.result);
    }
  }
}

TEST(SimtCheckClean, CheckerDoesNotPerturbMetrics) {
  // Disabled-vs-enabled runs must produce the same KernelStats: the
  // instrumentation only observes. With the read-only cache model off,
  // no metric depends on absolute heap addresses and the comparison is
  // bit-exact across every field, including the modeled time.
  const PipelineFixture fx;
  for (const bool rocache : {false, true}) {
    core::Config off;
    off.use_readonly_cache = rocache;
    core::Config on = off;
    on.simtcheck = true;
    const auto plain = core::CuBlastp(off).search(fx.query, fx.db);
    const auto checked = core::CuBlastp(on).search(fx.query, fx.db);
    ASSERT_EQ(checked.hazards.total, 0u) << checked.hazards.summary();
    expect_same_result(plain.result, checked.result);

    const auto& a = plain.profile.kernels();
    const auto& b = checked.profile.kernels();
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [name, stats] : a) {
      ASSERT_TRUE(b.count(name)) << name;
      expect_same_stats(stats, b.at(name), /*address_free=*/!rocache);
    }
  }
}

TEST(SimtCheckClean, GappedAblationKernel) {
  // The gapped GPU kernel is outside CuBlastp's pipeline (paper §3.6's
  // rejected alternative), so it is checked through the engine directly.
  const PipelineFixture fx;
  blast::SearchParams params;
  blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), params);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  std::vector<blast::UngappedExtension> seeds;
  blast::TwoHitTracker tracker(fx.query.size() + fx.db.max_length() + 2);
  for (std::size_t i = 0; i < fx.db.size(); ++i)
    blast::run_ungapped_phase(lookup, pssm, fx.db.residues(i),
                              static_cast<std::uint32_t>(i), params, tracker,
                              seeds);
  ASSERT_FALSE(seeds.empty());

  core::QueryDevice dq(fx.query, lookup, pssm);
  core::BlockDevice blk(fx.db, 0, fx.db.size());
  core::Config config;
  simt::Engine engine;
  engine.set_simtcheck_enabled(true);
  const auto result =
      core::launch_gapped_extension_gpu(engine, config, dq, blk, seeds);
  EXPECT_EQ(result.scores.size(), seeds.size());
  EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();
}

TEST(SimtCheckClean, SegmentedSortEveryPath) {
  // One segment per hit_sort path — registers, a shared-memory slice per
  // warp, in place in global memory — next to each other in every block,
  // serial and SM-sharded. The small pipeline above only makes short bins.
  for (const int workers : {1, 4}) {
    simt::Engine engine;
    engine.set_simtcheck_enabled(true);
    engine.set_workers(workers);
    util::Rng rng(17);
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint64_t> keys;
    for (int s = 0; s < 64; ++s) {
      const std::uint32_t n = s % 8 == 0 ? 1500 : s % 2 == 0 ? 100 : 20;
      for (std::uint32_t i = 0; i < n; ++i) keys.push_back(rng.below(500));
      offsets.push_back(static_cast<std::uint32_t>(keys.size()));
    }
    simt::DeviceVector<std::uint64_t> data(keys.begin(), keys.end());
    gpualgo::segmented_sort_u64(engine, data, offsets);
    EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();
    EXPECT_GT(engine.hazards().collectives_checked, 0u);
    for (std::size_t s = 0; s + 1 < offsets.size(); ++s)
      EXPECT_TRUE(std::is_sorted(data.begin() + offsets[s],
                                 data.begin() + offsets[s + 1]));
  }
}

TEST(SimtCheckClean, FlatSegmentListAndWindowClaiming) {
  // K4's flat segment list and the three K5 kernels over hand-built uneven
  // bins — one long segment among hundreds of short ones, so windows claim
  // segments all the way through — serial and SM-sharded. At window size
  // 32 one window spans the warp and its ballot slice is the full mask.
  const auto query = bio::make_benchmark_query(200).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(40);
  profile.homolog_fraction = 0.1;
  const bio::SequenceDatabase db =
      bio::DatabaseGenerator(profile, 353).generate(query);
  blast::SearchParams params;
  params.ungapped_cutoff = 0;
  const blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
  const bio::Pssm pssm(query, bio::Blosum62::instance());
  const core::QueryDevice dq(query, lookup, pssm);
  const core::BlockDevice blk(db, 0, db.size());
  const core::AssembledBins assembled =
      testref::make_uneven_bins(db, 200, 59);
  const auto expected = testref::reference_extensions(
      testref::flat_reference(assembled, params), db, pssm, params);

  for (const auto strategy :
       {core::ExtensionStrategy::kWindow, core::ExtensionStrategy::kDiagonal,
        core::ExtensionStrategy::kHit}) {
    for (const int window_size : {2, 8, 16, 32}) {
      for (const int workers : {1, 4}) {
        core::Config config;
        config.params = params;
        config.strategy = strategy;
        config.window_size = window_size;
        simt::Engine engine;
        engine.set_simtcheck_enabled(true);
        engine.set_workers(workers);
        const auto filtered = core::launch_filter(engine, config, assembled);
        auto result = core::launch_extension(engine, config, dq, blk,
                                             filtered);
        EXPECT_EQ(engine.hazards().total, 0u)
            << "strategy " << static_cast<int>(strategy) << " window "
            << window_size << " workers " << workers << "\n"
            << engine.hazards().summary();
        EXPECT_GT(engine.hazards().collectives_checked, 0u);
        std::sort(result.extensions.begin(), result.extensions.end());
        EXPECT_EQ(result.extensions, expected);
      }
    }
  }
}

TEST(SimtCheckClean, PrefilterKernel) {
  // The SSV pre-filter kernel, standalone (via run_prefilter against a
  // resident block) and inside the full pipeline, serial and SM-sharded:
  // zero hazards, and the filtered pipeline's results match unfiltered.
  const PipelineFixture fx;
  {
    blast::SearchParams params;
    blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), params);
    bio::Pssm pssm(fx.query, bio::Blosum62::instance());
    bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                                 fx.db.total_residues(), fx.db.size());
    core::PrefilterDevice table(pssm);
    core::BlockDevice blk(fx.db, 0, fx.db.size());
    core::Config config;
    simt::Engine engine;
    engine.set_simtcheck_enabled(true);
    const auto filtered = core::run_prefilter(
        engine, config, table, blk,
        core::prefilter_threshold_for(config, evalue));
    EXPECT_EQ(filtered.num_seqs, fx.db.size());
    EXPECT_EQ(engine.hazards().total, 0u) << engine.hazards().summary();
  }
  for (const auto mode :
       {core::PrefilterMode::kOn, core::PrefilterMode::kAuto}) {
    for (const int workers : {1, 4}) {
      core::Config config;
      config.prefilter = mode;
      config.simtcheck = true;
      config.engine_workers = workers;
      const auto report = core::CuBlastp(config).search(fx.query, fx.db);
      EXPECT_EQ(report.hazards.total, 0u)
          << "mode " << core::prefilter_mode_name(mode) << " workers "
          << workers << "\n"
          << report.hazards.summary();
      core::Config off;
      const auto baseline = core::CuBlastp(off).search(fx.query, fx.db);
      expect_same_result(baseline.result, report.result);
    }
  }
}

TEST(SimtCheckClean, CoarseBaselines) {
  const PipelineFixture fx;
  baselines::CoarseConfig config;
  config.simtcheck = true;
  const auto cuda = baselines::cuda_blastp_search(fx.query, fx.db, config);
  EXPECT_EQ(cuda.hazards.total, 0u) << cuda.hazards.summary();
  const auto gpu = baselines::gpu_blastp_search(fx.query, fx.db, config);
  EXPECT_EQ(gpu.hazards.total, 0u) << gpu.hazards.summary();
}

}  // namespace
}  // namespace repro
