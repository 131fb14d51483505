// The benchmark's own arithmetic: tail percentile choice, failure
// counting, and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // n=100: p90 has rank 90, so samples 91..100 (ten) lie beyond it; p91
  // would leave nine.
  const Tail t100 = tail_percentile(one_to(100));
  EXPECT_EQ(t100.percentile, 90);
  EXPECT_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10u);

  // n=40: rank ceil(75 * 40 / 100) = 30 leaves ten; p76 has rank 31.
  const Tail t40 = tail_percentile(one_to(40));
  EXPECT_EQ(t40.percentile, 75);
  EXPECT_EQ(t40.value, 30.0);
  EXPECT_EQ(t40.beyond, 10u);

  // n=1000: p99 has rank 990 and ten beyond.
  EXPECT_EQ(tail_percentile(one_to(1000)).percentile, 99);
}

TEST(TailPercentile, UnsortedInputAndSmallSamples) {
  std::vector<double> xs = one_to(20);
  std::reverse(xs.begin(), xs.end());
  const Tail t20 = tail_percentile(xs);
  EXPECT_EQ(t20.percentile, 50);
  EXPECT_EQ(t20.value, 10.0);
  EXPECT_EQ(t20.beyond, 10u);

  // Too few samples for ten beyond: falls back to p50 and says how thin.
  const Tail t5 = tail_percentile(one_to(5));
  EXPECT_EQ(t5.percentile, 50);
  EXPECT_EQ(t5.value, 3.0);
  EXPECT_EQ(t5.beyond, 2u);
  EXPECT_EQ(tail_percentile({}).beyond, 0u);
}

TEST(FailureCount, CountsEachFailedQueryOnce) {
  FailureCount count;
  count.add({});
  count.add({.threw = true});
  count.add({.degraded = true, .mismatched = true});
  count.add({});
  EXPECT_EQ(count.attempted, 4u);
  EXPECT_EQ(count.failed, 2u);
  EXPECT_EQ(count.threw, 1u);
  EXPECT_EQ(count.degraded, 1u);
  EXPECT_EQ(count.mismatched, 1u);
  EXPECT_DOUBLE_EQ(count.failed_frac(), 0.5);
  EXPECT_EQ(FailureCount{}.failed_frac(), 0.0);
}

Span make_span(const char* name, std::uint64_t start, std::uint64_t end,
               int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      make_span("query", 0, 100, -1),
      make_span("block", 10, 60, 0),
      make_span("kernel", 20, 30, 1),
      make_span("kernel", 25, 40, 1),  // overlaps its sibling: 20..40 once
      make_span("finalize", 90, 120, 0),  // sticks out: only 90..100 counts
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 50u - 10u);
  EXPECT_EQ(self[1], 50u - 20u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 15u);
  EXPECT_EQ(self[4], 30u);

  const auto layers = layer_times(spans);
  EXPECT_EQ(layers.at("kernel").calls, 2u);
  EXPECT_EQ(layers.at("kernel").total_ns, 25u);
  EXPECT_EQ(layers.at("kernel").self_ns, 25u);
  EXPECT_EQ(layers.at("query").self_ns, 40u);
}

TEST(SpanRecorder, AttachesTheEngineProfileDifference) {
  repro::simt::Engine engine;
  engine.transfer("h2d_query", 1000);
  SpanRecorder recorder(engine);
  const int root = recorder.open("query", -1, 7);
  const int child = recorder.open("transfer", root, 7);
  engine.transfer("h2d_query", 4096);
  recorder.close(child, {{"bytes", 4096.0}});
  recorder.close(root);

  const Span& s = recorder.spans()[1];
  EXPECT_EQ(s.parent, 0);
  EXPECT_EQ(s.query, 7);
  ASSERT_EQ(s.counts.size(), 1u);
  EXPECT_EQ(s.counts[0].second, 4096.0);
  ASSERT_TRUE(s.kernels.has("h2d_query"));
  EXPECT_EQ(s.kernels.at("h2d_query").st_bytes_requested, 4096u);
  EXPECT_LE(recorder.spans()[0].start_ns, s.start_ns);
  EXPECT_GE(recorder.spans()[0].end_ns, s.end_ns);
}

}  // namespace
}  // namespace perfbench
