// Tests for src/util: RNG, statistics, makespan model, thread pool, table,
// options.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "util/fault.hpp"
#include "util/flight_recorder.hpp"
#include "util/makespan.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace repro {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  util::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, RangeInclusive) {
  util::Rng rng(5);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo_seen |= v == -3;
    hi_seen |= v == 3;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, GammaMeanMatchesShapeTimesScale) {
  util::Rng rng(9);
  util::Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.gamma(2.2, 168.0));
  EXPECT_NEAR(acc.mean(), 2.2 * 168.0, 8.0);
}

TEST(Rng, GammaShapeBelowOne) {
  util::Rng rng(13);
  util::Accumulator acc;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.gamma(0.5, 2.0);
    ASSERT_GE(g, 0.0);
    acc.add(g);
  }
  EXPECT_NEAR(acc.mean(), 1.0, 0.05);
}

TEST(Rng, SampleCdfRespectsWeights) {
  util::Rng rng(17);
  const std::vector<double> cdf = {0.1, 0.1, 0.9, 1.0};  // mass on idx 2
  std::array<int, 4> counts{};
  for (int i = 0; i < 10000; ++i)
    ++counts[rng.sample_cdf(cdf)];
  EXPECT_EQ(counts[1], 0);  // zero-mass bucket never drawn
  EXPECT_GT(counts[2], 7000);
}

TEST(Accumulator, MeanVarianceMinMax) {
  util::Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_EQ(acc.count(), 8u);
}

TEST(Accumulator, EmptyIsZero) {
  util::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Histogram, BucketsAndClamping) {
  util::Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(-100.0);  // clamps to first bucket
  h.add(100.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[5], 2u);
  EXPECT_EQ(h.buckets()[9], 1u);
  EXPECT_EQ(h.mode_bucket(), 0u);
}

TEST(Percentile, InterpolatesSorted) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0.5), 2.5);
}

TEST(Makespan, OneWorkerIsSum) {
  const std::vector<double> costs = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(util::list_schedule_makespan(costs, 1),
                   util::total_cost(costs));
}

TEST(Makespan, ManyWorkersIsMax) {
  const std::vector<double> costs = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(util::list_schedule_makespan(costs, 100), 5.0);
  EXPECT_DOUBLE_EQ(util::lpt_schedule_makespan(costs, 100), 5.0);
}

TEST(Makespan, MonotoneInWorkers) {
  util::Rng rng(23);
  std::vector<double> costs;
  for (int i = 0; i < 200; ++i) costs.push_back(rng.uniform() + 0.01);
  double prev = util::list_schedule_makespan(costs, 1);
  for (std::size_t t = 2; t <= 16; ++t) {
    const double now = util::list_schedule_makespan(costs, t);
    EXPECT_LE(now, prev + 1e-12);
    prev = now;
  }
}

TEST(Makespan, BoundedBelowByIdeal) {
  util::Rng rng(29);
  std::vector<double> costs;
  for (int i = 0; i < 100; ++i) costs.push_back(rng.uniform());
  const double total = util::total_cost(costs);
  for (const std::size_t t : {2u, 4u, 8u}) {
    EXPECT_GE(util::list_schedule_makespan(costs, t),
              total / static_cast<double>(t) - 1e-12);
    EXPECT_GE(util::lpt_schedule_makespan(costs, t),
              total / static_cast<double>(t) - 1e-12);
  }
}

TEST(Makespan, LptNoWorseThanListOnSkewedLoads) {
  // A classic adversarial case: big task last ruins greedy list scheduling.
  const std::vector<double> costs = {1, 1, 1, 1, 1, 1, 6};
  EXPECT_LE(util::lpt_schedule_makespan(costs, 2),
            util::list_schedule_makespan(costs, 2));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(touched.size(),
                    [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, DynamicScheduleCoversAllIndices) {
  util::ThreadPool pool(3);
  std::atomic<int> sum{0};
  pool.parallel_for_dynamic(500, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 499 * 500 / 2);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] {});
  f.get();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ZeroRequestedBecomesOneWorker) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(200,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exceptional round.
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DynamicSchedulePropagatesWorkerException) {
  util::ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_dynamic(200,
                                         [](std::size_t i) {
                                           if (i == 123)
                                             throw std::runtime_error("boom");
                                         }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_dynamic(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, RunShardsRethrowsFirstFailureInSubmissionOrder) {
  util::ThreadPool pool(2);
  try {
    pool.run_shards(8, [](std::size_t shard) {
      if (shard == 3 || shard == 5)
        throw std::runtime_error("shard " + std::to_string(shard));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 3");  // deterministic across timings
  }
}

TEST(ThreadPool, RunShardsCancelsShardsAfterAFailure) {
  util::ThreadPool pool(1);  // serial: shard i+1 starts only after shard i
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.run_shards(16,
                               [&](std::size_t shard) {
                                 if (shard == 0)
                                   throw std::runtime_error("die");
                                 executed.fetch_add(1);
                               }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, WorkerFaultPointInjectsIntoShards) {
  util::FaultScope scope("util.worker:nth=1", 7);
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.run_shards(4, [](std::size_t) {}),
               util::FaultInjectedError);
  pool.run_shards(4, [](std::size_t) {});  // nth consumed: clean again
}

TEST(ThreadPool, TaskSpanRecordedBeforeFutureReady) {
  // A flight-recorded query owner joins its workers' futures and may end
  // the query right away, so every task span must already be recorded
  // when submit()'s future becomes ready.
  auto& recorder = util::FlightRecorder::instance();
  recorder.configure(4096);
  recorder.begin_query(1);
  util::ThreadPool pool(1);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t before = recorder.event_count();
    pool.submit([] {}).get();
    ASSERT_EQ(recorder.event_count(), before + 1) << "task " << i;
  }
  recorder.reset();
}

TEST(Table, RendersAlignedColumns) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(util::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::Table::num(2.0, 0), "2");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--beta=x"};
  util::Options opts(5, argv);
  EXPECT_EQ(opts.get_int("alpha", 0), 3);
  EXPECT_TRUE(opts.has("flag"));
  EXPECT_EQ(opts.get("beta", ""), "x");
  EXPECT_EQ(opts.get("missing", "dflt"), "dflt");
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
}

TEST(Options, UnknownKeysNameEveryFlagOutsideTheVocabulary) {
  // A mistyped flag (--shard for --shards) and a removed one (--prefilter)
  // are named, bare flags included; known keys and positionals are not.
  const char* argv[] = {"prog", "--shard=4", "--db=x.fasta", "pos",
                        "--prefilter=auto", "--simtcheck", "--report"};
  const util::Options opts(7, argv);
  const std::vector<std::string_view> known = {"db", "shards", "simtcheck",
                                               "report"};
  EXPECT_EQ(opts.unknown_keys(known),
            (std::vector<std::string>{"prefilter", "shard"}));
  const std::vector<std::string_view> all = {"db",     "shards", "shard",
                                             "report", "prefilter",
                                             "simtcheck"};
  EXPECT_TRUE(opts.unknown_keys(all).empty());
}

TEST(Options, GetDoubleFallsBack) {
  const char* argv[] = {"prog", "--x=2.5"};
  util::Options opts(2, argv);
  EXPECT_DOUBLE_EQ(opts.get_double("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(opts.get_double("y", 1.5), 1.5);
}

}  // namespace
}  // namespace repro
