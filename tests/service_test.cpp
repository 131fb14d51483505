// SearchService (core/service.hpp): admission control, priorities,
// deadlines, cooperative cancellation, transient-fault retries, and the
// drain protocol. The service's determinism contracts are pinned here —
// an un-deadlined, uncancelled request is bit-identical to a direct
// SearchSession::search, and queue/deadline decisions are reproducible
// under the virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bio/generator.hpp"
#include "core/cancellation.hpp"
#include "core/search_session.hpp"
#include "core/service.hpp"
#include "simt/metrics.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

Workload make_workload(std::size_t num_queries = 1,
                       std::size_t num_seqs = 40) {
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

core::Config base_config() {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;
  config.bin_capacity = 64;
  return config;
}

/// Address-independent KernelStats comparison (same carve-outs as
/// batch_equivalence_test.cpp: transactions, rocache hits/misses, and
/// modeled time hash heap addresses and differ between any two searches).
void expect_stats_equal(const simt::KernelStats& a, const simt::KernelStats& b,
                        const std::string& name) {
  EXPECT_EQ(a.vec_ops, b.vec_ops) << name;
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum) << name;
  EXPECT_EQ(a.ld_requests, b.ld_requests) << name;
  EXPECT_EQ(a.ld_bytes_requested, b.ld_bytes_requested) << name;
  EXPECT_EQ(a.st_requests, b.st_requests) << name;
  EXPECT_EQ(a.st_bytes_requested, b.st_bytes_requested) << name;
  EXPECT_EQ(a.shared_ops, b.shared_ops) << name;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << name;
  EXPECT_EQ(a.num_blocks, b.num_blocks) << name;
}

// ---------------------------------------------------------------------------
// Equivalence: the service is transparent when its features are unused.
// ---------------------------------------------------------------------------

TEST(ServiceEquivalence, NoDeadlineNoCancelBitIdenticalToDirectSearch) {
  const auto w = make_workload();
  core::SearchSession direct(base_config(), w.db);
  const auto expected = direct.search(w.queries[0]);

  core::SearchService service(base_config(), w.db);
  const auto result = service.search(w.queries[0]);

  ASSERT_EQ(result.status, core::RequestStatus::kOk);
  EXPECT_FALSE(result.error_code.has_value());
  EXPECT_EQ(result.transient_retries, 0u);
  EXPECT_EQ(result.report.status, "ok");
  EXPECT_EQ(result.report.result.alignments, expected.result.alignments);
  EXPECT_EQ(result.report.result.counters.words_scanned,
            expected.result.counters.words_scanned);
  EXPECT_EQ(result.report.result.counters.hits_detected,
            expected.result.counters.hits_detected);
  EXPECT_EQ(result.report.result.counters.ungapped_extensions,
            expected.result.counters.ungapped_extensions);
  EXPECT_EQ(result.report.result.counters.gapped_extensions,
            expected.result.counters.gapped_extensions);
  EXPECT_EQ(result.report.result.counters.tracebacks,
            expected.result.counters.tracebacks);
  EXPECT_EQ(result.report.degraded_blocks, expected.degraded_blocks);
  EXPECT_EQ(result.report.retry_counts, expected.retry_counts);
  for (const auto& [name, stats] : expected.profile.kernels()) {
    ASSERT_TRUE(result.report.profile.has(name)) << name;
    expect_stats_equal(stats, result.report.profile.at(name), name);
  }
}

TEST(ServiceEquivalence, SearchSessionTokenNeverFiringIsBitIdentical) {
  // A live (but never cancelled, never deadlined) token must not change
  // results either — every checkpoint is a pure null test.
  const auto w = make_workload();
  core::SearchSession plain(base_config(), w.db);
  const auto expected = plain.search(w.queries[0]);

  core::CancellationSource source;
  core::SearchSession tokened(base_config(), w.db);
  const auto got = tokened.search(w.queries[0], source.token());
  EXPECT_EQ(got.result.alignments, expected.result.alignments);
  EXPECT_EQ(got.result.counters.hits_detected,
            expected.result.counters.hits_detected);
  EXPECT_EQ(got.result.counters.gapped_extensions,
            expected.result.counters.gapped_extensions);
  EXPECT_EQ(got.status, "ok");
  for (const auto& [name, stats] : expected.profile.kernels()) {
    ASSERT_TRUE(got.profile.has(name)) << name;
    expect_stats_equal(stats, got.profile.at(name), name);
  }
}

// ---------------------------------------------------------------------------
// Admission control and backpressure.
// ---------------------------------------------------------------------------

TEST(ServiceAdmission, SaturatedQueueRejects) {
  const auto w = make_workload();
  core::ServiceConfig service_config;
  service_config.queue_capacity = 2;
  core::SearchService service(base_config(), w.db, service_config);
  service.pause();  // deterministic: nothing dequeues while we fill up

  std::vector<std::future<core::ServiceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    core::SearchRequest request;
    request.query = w.queries[0];
    futures.push_back(service.submit(std::move(request)));
  }

  // The third submission was rejected immediately, while paused.
  ASSERT_EQ(futures[2].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto rejected = futures[2].get();
  EXPECT_EQ(rejected.status, core::RequestStatus::kRejected);
  ASSERT_TRUE(rejected.error_code.has_value());
  EXPECT_EQ(*rejected.error_code, core::SearchErrorCode::kRejected);
  EXPECT_EQ(rejected.report.status, "rejected");
  EXPECT_EQ(rejected.service_seq, 0u);  // the worker never saw it
  EXPECT_NE(rejected.report.to_json().find("\"status\":\"rejected\""),
            std::string::npos);

  service.resume();
  EXPECT_EQ(futures[0].get().status, core::RequestStatus::kOk);
  EXPECT_EQ(futures[1].get().status, core::RequestStatus::kOk);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServiceAdmission, PerPriorityClassLimit) {
  const auto w = make_workload();
  core::ServiceConfig service_config;
  service_config.queue_capacity = 8;
  service_config.per_priority_limit = 1;
  core::SearchService service(base_config(), w.db, service_config);
  service.pause();

  const auto submit_with = [&](core::RequestPriority priority) {
    core::SearchRequest request;
    request.query = w.queries[0];
    request.priority = priority;
    return service.submit(std::move(request));
  };

  auto batch1 = submit_with(core::RequestPriority::kBatch);
  auto batch2 = submit_with(core::RequestPriority::kBatch);  // class full
  auto interactive = submit_with(core::RequestPriority::kInteractive);

  const auto rejected = batch2.get();
  EXPECT_EQ(rejected.status, core::RequestStatus::kRejected);
  EXPECT_NE(rejected.message.find("batch"), std::string::npos);

  service.resume();
  EXPECT_EQ(batch1.get().status, core::RequestStatus::kOk);
  EXPECT_EQ(interactive.get().status, core::RequestStatus::kOk);
}

TEST(ServiceAdmission, ConcurrentSubmittersNeverExceedCapacity) {
  const auto w = make_workload();
  core::ServiceConfig service_config;
  service_config.queue_capacity = 4;
  core::SearchService service(base_config(), w.db, service_config);
  service.pause();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 4;
  std::vector<std::future<core::ServiceResult>> futures(kThreads *
                                                        kPerThread);
  {
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t)
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          core::SearchRequest request;
          request.query = w.queries[0];
          futures[t * kPerThread + i] = service.submit(std::move(request));
        }
      });
    for (auto& thread : submitters) thread.join();
  }

  // While paused, exactly queue_capacity requests can have been admitted,
  // regardless of submitter interleaving.
  const auto paused_stats = service.stats();
  EXPECT_EQ(paused_stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(paused_stats.admitted, service_config.queue_capacity);
  EXPECT_EQ(paused_stats.rejected,
            kThreads * kPerThread - service_config.queue_capacity);
  EXPECT_EQ(paused_stats.queue_depth, service_config.queue_capacity);

  service.resume();
  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    if (result.status == core::RequestStatus::kOk) ++ok;
    if (result.status == core::RequestStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(ok, service_config.queue_capacity);
  EXPECT_EQ(rejected, kThreads * kPerThread - service_config.queue_capacity);
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(ServiceDeadline, ExpiredWhileQueuedNeverRuns) {
  const auto w = make_workload();
  util::VirtualClockScope vclock;
  core::SearchService service(base_config(), w.db);
  service.pause();

  core::SearchRequest request;
  request.query = w.queries[0];
  request.deadline_ms = 0.001;  // 1 µs = one virtual-clock read
  auto future = service.submit(std::move(request));
  service.resume();

  const auto result = future.get();
  EXPECT_EQ(result.status, core::RequestStatus::kDeadlineExceeded);
  ASSERT_TRUE(result.error_code.has_value());
  EXPECT_EQ(*result.error_code, core::SearchErrorCode::kDeadlineExceeded);
  EXPECT_NE(result.message.find("queued"), std::string::npos);
  EXPECT_EQ(result.report.status, "deadline_exceeded");
  // Never ran: the report carries no result at all.
  EXPECT_TRUE(result.report.result.alignments.empty());
  EXPECT_EQ(result.report.profile.kernels().size(), 0u);
}

TEST(ServiceDeadline, ExpiresMidPipelineDeterministically) {
  const auto w = make_workload();
  util::VirtualClockScope vclock;

  // Calibrate: how much virtual time (= clock reads) one full search
  // consumes. Virtual time advances only on reads, so this is a property
  // of the code path, not the machine.
  std::uint64_t search_ns = 0;
  {
    core::SearchSession session(base_config(), w.db);
    const std::uint64_t t0 = util::MonotonicClock::now_ns();
    (void)session.search(w.queries[0]);
    search_ns = util::MonotonicClock::now_ns() - t0;
  }
  ASSERT_GT(search_ns, 10'000u);  // sanity: plenty of reads to land between

  // A deadline of ~half a search lands mid-pipeline: far past the dequeue
  // check, well before completion. The abort must happen at a named stage
  // checkpoint, deterministically.
  core::SearchService service(base_config(), w.db);
  const auto result = service.search(
      w.queries[0], static_cast<double>(search_ns / 2) * 1e-6);
  EXPECT_EQ(result.status, core::RequestStatus::kDeadlineExceeded);
  ASSERT_TRUE(result.error_code.has_value());
  EXPECT_EQ(*result.error_code, core::SearchErrorCode::kDeadlineExceeded);
  EXPECT_NE(result.message.find("checkpoint '"), std::string::npos)
      << result.message;
  EXPECT_EQ(result.report.status, "deadline_exceeded");

  // The session survives the mid-flight abort: the same service answers
  // an un-deadlined request normally afterwards.
  const auto after = service.search(w.queries[0]);
  EXPECT_EQ(after.status, core::RequestStatus::kOk);
  EXPECT_FALSE(after.report.result.alignments.empty());
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(ServiceCancellation, PreCancelledTokenResolvesWithoutRunning) {
  const auto w = make_workload();
  core::SearchService service(base_config(), w.db);

  core::CancellationSource source;
  source.cancel();
  core::SearchRequest request;
  request.query = w.queries[0];
  request.cancel = source.token();
  const auto result = service.submit(std::move(request)).get();

  EXPECT_EQ(result.status, core::RequestStatus::kCancelled);
  ASSERT_TRUE(result.error_code.has_value());
  EXPECT_EQ(*result.error_code, core::SearchErrorCode::kCancelled);
  EXPECT_EQ(result.report.status, "cancelled");
  EXPECT_TRUE(result.report.result.alignments.empty());
  EXPECT_NE(result.report.to_json().find("\"status\":\"cancelled\""),
            std::string::npos);
}

TEST(ServiceCancellation, MidRunCancelStopsAtNextCheckpoint) {
  // Cancel from another thread while the request runs. Cooperative: the
  // request either finished already (ok) or stops at its next checkpoint
  // (cancelled) — never deadlocks, never crashes.
  const auto w = make_workload(1, 80);
  core::SearchService service(base_config(), w.db);

  core::CancellationSource source;
  core::SearchRequest request;
  request.query = w.queries[0];
  request.cancel = source.token();
  auto future = service.submit(std::move(request));
  source.cancel();
  const auto result = future.get();

  EXPECT_TRUE(result.status == core::RequestStatus::kCancelled ||
              result.status == core::RequestStatus::kOk)
      << request_status_name(result.status);
  if (result.status == core::RequestStatus::kCancelled) {
    ASSERT_TRUE(result.error_code.has_value());
    EXPECT_EQ(*result.error_code, core::SearchErrorCode::kCancelled);
  }
}

TEST(ServiceCancellation, DuringDegradationLadderRetries) {
  // Every GPU launch fails, so each block grinds through the ladder to the
  // CPU fallback; a cancel mid-flight must stop between rungs/blocks, and
  // an uncancelled run under the same schedule completes degraded. Either
  // way the worker survives and the service stays usable.
  const auto w = make_workload();
  auto config = base_config();
  config.fault_schedule = "simt.launch:every=1";
  core::SearchService service(config, w.db);

  core::CancellationSource source;
  core::SearchRequest request;
  request.query = w.queries[0];
  request.cancel = source.token();
  auto future = service.submit(std::move(request));
  source.cancel();
  const auto result = future.get();
  EXPECT_TRUE(result.status == core::RequestStatus::kCancelled ||
              result.status == core::RequestStatus::kDegraded)
      << request_status_name(result.status);

  // The same service still answers (degraded — the schedule stays on).
  const auto after = service.search(w.queries[0]);
  EXPECT_EQ(after.status, core::RequestStatus::kDegraded);
  EXPECT_EQ(after.report.status, "degraded");
  EXPECT_FALSE(after.report.result.alignments.empty());
}

// ---------------------------------------------------------------------------
// Transient-fault retries.
// ---------------------------------------------------------------------------

TEST(ServiceRetry, TransientTransferFaultRetriedToSuccess) {
  const auto w = make_workload();
  core::SearchSession direct(base_config(), w.db);
  const auto expected = direct.search(w.queries[0]);

  // Install the schedule at test scope (NOT via Config::fault_schedule:
  // the session re-installs a Config schedule per attempt, which would
  // reset hit counters and re-fire nth=1 forever). One transfer fault
  // fires on the service's first attempt; the retry runs clean.
  core::SearchService service(base_config(), w.db);
  util::FaultScope faults("simt.transfer:nth=1", 7);
  const auto result = service.search(w.queries[0]);

  ASSERT_EQ(result.status, core::RequestStatus::kOk)
      << result.message;
  EXPECT_EQ(result.transient_retries, 1u);
  EXPECT_EQ(result.report.result.alignments, expected.result.alignments);
  EXPECT_EQ(result.report.result.counters.hits_detected,
            expected.result.counters.hits_detected);
  EXPECT_EQ(result.report.result.counters.gapped_extensions,
            expected.result.counters.gapped_extensions);

  const auto stats = service.stats();
  EXPECT_EQ(stats.transient_retries, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceRetry, PersistentTransferFaultExhaustsRetries) {
  const auto w = make_workload();
  core::ServiceConfig service_config;
  service_config.max_transient_retries = 2;
  service_config.backoff_initial_ms = 0.1;  // keep the test fast
  core::SearchService service(base_config(), w.db, service_config);

  util::FaultScope faults("simt.transfer:every=1", 7);
  const auto result = service.search(w.queries[0]);

  EXPECT_EQ(result.status, core::RequestStatus::kFailed);
  ASSERT_TRUE(result.error_code.has_value());
  EXPECT_EQ(*result.error_code, core::SearchErrorCode::kDeviceTransfer);
  EXPECT_EQ(result.transient_retries, service_config.max_transient_retries);
  EXPECT_EQ(result.report.status, "failed");
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServiceRetry, DeadlineSuppressesFurtherRetries) {
  // Once the deadline has passed, a transient failure must not be retried
  // — the time budget is gone.
  const auto w = make_workload();
  util::VirtualClockScope vclock;
  core::ServiceConfig service_config;
  service_config.max_transient_retries = 5;
  core::SearchService service(base_config(), w.db, service_config);

  util::FaultScope faults("simt.transfer:every=1", 7);
  // Large enough to pass the dequeue check (a handful of reads), small
  // enough to expire within the first attempt or two. Without the
  // deadline, every=1 faults would consume all five retries; with it, the
  // retry loop must stop as soon as the budget is gone.
  const auto result = service.search(w.queries[0], 0.05);

  EXPECT_TRUE(result.status == core::RequestStatus::kFailed ||
              result.status == core::RequestStatus::kDeadlineExceeded)
      << request_status_name(result.status);
  EXPECT_LT(result.transient_retries, service_config.max_transient_retries);
}

// ---------------------------------------------------------------------------
// Drain / shutdown.
// ---------------------------------------------------------------------------

TEST(ServiceDrain, FinishesInflightThenRejectsNewWork) {
  const auto w = make_workload();
  core::SearchService service(base_config(), w.db);

  core::SearchRequest request;
  request.query = w.queries[0];
  auto future = service.submit(std::move(request));
  service.drain();  // must wait for the in-flight/queued request

  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status, core::RequestStatus::kOk);

  const auto late = service.search(w.queries[0]);
  EXPECT_EQ(late.status, core::RequestStatus::kRejected);
  EXPECT_NE(late.message.find("draining"), std::string::npos);
}

TEST(ServiceDrain, ShutdownFailsQueuedWorkImmediately) {
  const auto w = make_workload();
  core::SearchService service(base_config(), w.db);
  service.pause();

  std::vector<std::future<core::ServiceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    core::SearchRequest request;
    request.query = w.queries[0];
    futures.push_back(service.submit(std::move(request)));
  }
  service.shutdown();

  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_EQ(result.status, core::RequestStatus::kCancelled);
    ASSERT_TRUE(result.error_code.has_value());
    EXPECT_EQ(*result.error_code, core::SearchErrorCode::kShutdown);
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(ServiceDrain, DestructorDrainsWithQueuedWork) {
  const auto w = make_workload();
  std::future<core::ServiceResult> future;
  {
    core::SearchService service(base_config(), w.db);
    core::SearchRequest request;
    request.query = w.queries[0];
    future = service.submit(std::move(request));
  }  // ~SearchService drains: the future must be resolved, not abandoned
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status, core::RequestStatus::kOk);
}

// ---------------------------------------------------------------------------
// Priorities.
// ---------------------------------------------------------------------------

TEST(ServicePriority, InteractiveDispatchesBeforeBatch) {
  const auto w = make_workload();
  core::SearchService service(base_config(), w.db);
  service.pause();

  const auto submit_with = [&](core::RequestPriority priority) {
    core::SearchRequest request;
    request.query = w.queries[0];
    request.priority = priority;
    return service.submit(std::move(request));
  };
  // Submitted lowest-priority first; dispatch order must invert that.
  auto batch = submit_with(core::RequestPriority::kBatch);
  auto normal = submit_with(core::RequestPriority::kNormal);
  auto interactive = submit_with(core::RequestPriority::kInteractive);
  service.resume();

  const auto batch_result = batch.get();
  const auto normal_result = normal.get();
  const auto interactive_result = interactive.get();
  EXPECT_LT(interactive_result.service_seq, normal_result.service_seq);
  EXPECT_LT(normal_result.service_seq, batch_result.service_seq);
}

// ---------------------------------------------------------------------------
// Determinism under the virtual clock.
// ---------------------------------------------------------------------------

TEST(ServiceDeterminism, MixedScenarioRepeatsIdentically) {
  const auto w = make_workload();
  const auto run_scenario = [&] {
    util::VirtualClockScope vclock;  // resets virtual time per run
    core::ServiceConfig service_config;
    service_config.queue_capacity = 2;
    core::SearchService service(base_config(), w.db, service_config);
    service.pause();

    core::CancellationSource cancelled;
    cancelled.cancel();

    std::vector<std::future<core::ServiceResult>> futures;
    {
      core::SearchRequest r;  // expires while queued
      r.query = w.queries[0];
      r.deadline_ms = 0.001;
      futures.push_back(service.submit(std::move(r)));
    }
    {
      core::SearchRequest r;  // pre-cancelled
      r.query = w.queries[0];
      r.cancel = cancelled.token();
      futures.push_back(service.submit(std::move(r)));
    }
    {
      core::SearchRequest r;  // queue full -> rejected
      r.query = w.queries[0];
      futures.push_back(service.submit(std::move(r)));
    }
    service.resume();

    std::vector<core::RequestStatus> statuses;
    for (auto& future : futures) statuses.push_back(future.get().status);
    service.drain();
    return statuses;
  };

  const auto first = run_scenario();
  const auto second = run_scenario();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << i;
  // And the decisions themselves are the expected ones.
  EXPECT_EQ(first[0], core::RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(first[1], core::RequestStatus::kCancelled);
  EXPECT_EQ(first[2], core::RequestStatus::kRejected);
}

// ---------------------------------------------------------------------------
// run_shards external cancellation (util layer).
// ---------------------------------------------------------------------------

TEST(RunShardsCancel, NullFlagRunsEveryShard) {
  util::ThreadPool pool(2, "test");
  std::atomic<int> ran{0};
  pool.run_shards(8, [&](std::size_t) { ran.fetch_add(1); }, nullptr);
  EXPECT_EQ(ran.load(), 8);
}

TEST(RunShardsCancel, PreSetFlagSkipsEveryShard) {
  util::ThreadPool pool(2, "test");
  std::atomic<bool> cancel{true};
  std::atomic<int> ran{0};
  pool.run_shards(8, [&](std::size_t) { ran.fetch_add(1); }, &cancel);
  EXPECT_EQ(ran.load(), 0);  // partial (here: empty) return, no throw
}

TEST(RunShardsCancel, MidRunFlagSkipsRemainingShards) {
  // One worker makes the schedule sequential, so "cancel during shard 0"
  // deterministically skips shards 1..3.
  util::ThreadPool pool(1, "test");
  std::atomic<bool> cancel{false};
  std::atomic<int> ran{0};
  pool.run_shards(
      4,
      [&](std::size_t shard) {
        ran.fetch_add(1);
        if (shard == 0) cancel.store(true, std::memory_order_release);
      },
      &cancel);
  EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Report schema v3 (versioned parse).
// ---------------------------------------------------------------------------

TEST(ServiceReport, V3SchemaCarriesWallMsAndStatus) {
  const auto w = make_workload();
  core::SearchService service(base_config(), w.db);
  const auto result = service.search(w.queries[0]);
  ASSERT_EQ(result.status, core::RequestStatus::kOk);

  const std::string json = result.report.to_json();
  EXPECT_NE(json.find("\"schema\":\"cublastp.search_report.v5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
  EXPECT_GT(result.report.wall_ms, 0.0);
}

}  // namespace
}  // namespace repro
