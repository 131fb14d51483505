// svccheck (util/svccheck.hpp): the host-side concurrency analyzer.
// Injected defects — a lock-order inversion, a blocking wait that parks
// while holding another lock, a cancellation checkpoint that is never
// polled — must each be reported deterministically; the production service
// layer must run clean under the analyzer (zero hazards after a drain, at
// 1 and 4 engine workers), and drain() must flush exactly once even when
// called concurrently.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "bio/generator.hpp"
#include "core/search_session.hpp"
#include "core/service.hpp"
#include "simt/simtcheck.hpp"
#include "util/metrics.hpp"
#include "util/svccheck.hpp"

namespace repro {
namespace {

using util::svc::SvcHazardKind;
using util::svc::SvcHazardLog;

/// Enables the analyzer with a fresh log + lock-order graph, restoring the
/// previous enable state on exit (the log is process-wide; tests must not
/// see each other's records).
struct SvcCheckFixture : ::testing::Test {
  void SetUp() override {
    was_enabled_ = util::svc::svccheck_enabled();
    SvcHazardLog::instance().clear();
    util::svc::set_svccheck_enabled(true);
  }
  void TearDown() override {
    util::svc::set_svccheck_enabled(was_enabled_);
    SvcHazardLog::instance().clear();
  }
  bool was_enabled_ = false;
};

using SvcCheck = SvcCheckFixture;
using SvcCheckService = SvcCheckFixture;

// The injected inversions take the reverse order on second instances with
// the same names. The graph is keyed by name, so svccheck sees one cycle,
// while no two real mutexes are ever taken in both orders (which TSan's
// deadlock detector would rightly report).

TEST_F(SvcCheck, LockOrderInversionDetectedOncePerPair) {
  util::svc::CheckedMutex a("test.order.a");
  util::svc::CheckedMutex b("test.order.b");
  {
    std::scoped_lock la(a);
    std::scoped_lock lb(b);  // records edge a -> b
  }
  EXPECT_EQ(SvcHazardLog::instance().total(), 0u);
  util::svc::CheckedMutex a2("test.order.a");
  util::svc::CheckedMutex b2("test.order.b");
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::scoped_lock lb(b2);
    std::scoped_lock la(a2);  // a -> b exists: closing b -> a is a cycle
  }
  const auto records = SvcHazardLog::instance().snapshot();
  ASSERT_EQ(records.size(), 1u);  // deduped: one report per lock pair
  EXPECT_EQ(records[0].kind, SvcHazardKind::kLockOrderInversion);
  EXPECT_NE(records[0].name.find("test.order.a"), std::string::npos)
      << records[0].name;
  EXPECT_NE(records[0].name.find("test.order.b"), std::string::npos)
      << records[0].name;
}

TEST_F(SvcCheck, TransitiveInversionThroughAThirdLockDetected) {
  util::svc::CheckedMutex a("test.chain.a");
  util::svc::CheckedMutex b("test.chain.b");
  util::svc::CheckedMutex c("test.chain.c");
  {
    std::scoped_lock la(a);
    std::scoped_lock lb(b);  // a -> b
  }
  {
    std::scoped_lock lb(b);
    std::scoped_lock lc(c);  // b -> c
  }
  util::svc::CheckedMutex a2("test.chain.a");
  util::svc::CheckedMutex c2("test.chain.c");
  {
    std::scoped_lock lc(c2);
    std::scoped_lock la(a2);  // a ->* c already: c -> a closes the cycle
  }
  const auto records = SvcHazardLog::instance().snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, SvcHazardKind::kLockOrderInversion);
}

TEST_F(SvcCheck, BlockedWhileLockedDetected) {
  util::svc::CheckedMutex outer("test.wait.outer");
  util::svc::CheckedMutex inner("test.wait.inner");
  {
    std::scoped_lock lo(outer);
    // Waiting on `inner` releases it, but `outer` stays held across the
    // park — its contenders stall for the whole wait.
    std::scoped_lock li(inner);
    util::svc::note_blocking_wait(&inner);
  }
  const auto records = SvcHazardLog::instance().snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, SvcHazardKind::kBlockedWhileLocked);
  EXPECT_EQ(records[0].name, "test.wait.inner");
  EXPECT_NE(records[0].detail.find("test.wait.outer"), std::string::npos)
      << records[0].detail;
}

TEST_F(SvcCheck, WaitReleasingTheOnlyHeldLockIsClean) {
  util::svc::CheckedMutex only("test.wait.only");
  {
    std::scoped_lock lock(only);
    util::svc::note_blocking_wait(&only);  // condition-wait idiom: fine
  }
  util::svc::note_blocking_wait(nullptr);  // join with nothing held: fine
  EXPECT_EQ(SvcHazardLog::instance().total(), 0u);
}

TEST_F(SvcCheck, CheckpointScopeTracksPolledAndMissing) {
  util::svc::CheckpointScope scope;
  util::svc::note_checkpoint("query.start");
  util::svc::note_checkpoint("query.start");  // duplicates collapse
  {
    util::svc::CheckpointScope inner;  // innermost scope records
    util::svc::note_checkpoint("finalize");
    EXPECT_TRUE(inner.polled("finalize"));
  }
  util::svc::note_checkpoint("gpu_phase.block");

  EXPECT_TRUE(scope.polled("query.start"));
  EXPECT_TRUE(scope.polled("gpu_phase.block"));
  EXPECT_FALSE(scope.polled("finalize"));  // went to the inner scope

  constexpr const char* kRequired[] = {"query.start", "finalize",
                                       "gpu_phase.block"};
  const auto missing = scope.missing(kRequired);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "finalize");
}

// ---------------------------------------------------------------------------
// Production surfaces under the analyzer.
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

Workload make_workload() {
  Workload w;
  for (std::size_t i = 0; i < 2; ++i)
    w.queries.push_back(
        bio::make_benchmark_query(97 + 40 * i, 300 + i).residues);
  auto profile = bio::DatabaseProfile::swissprot_like(40);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, 23);
  w.db = gen.generate(w.queries.front());
  return w;
}

core::Config checked_config(int workers = 1) {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;
  config.bin_capacity = 64;
  config.engine_workers = workers;
  config.simtcheck = true;
  config.svccheck = true;
  return config;
}

TEST_F(SvcCheckService, SessionSearchPollsEveryRequiredCheckpoint) {
  const auto w = make_workload();
  core::SearchSession session(checked_config(), w.db);
  const auto report = session.search(w.queries[0]);
  EXPECT_EQ(report.hazards.count(simt::HazardKind::kCheckpointGap), 0u)
      << report.hazards.summary();
  EXPECT_EQ(report.hazards.count(simt::HazardKind::kDeviceLeak), 0u)
      << report.hazards.summary();
  EXPECT_EQ(report.hazards.total, 0u) << report.hazards.summary();
}

TEST_F(SvcCheckService, DrainedServiceReportsZeroHazards) {
  // The full service stack — admission queue, worker thread, thread pools,
  // cancellation, per-query leak scans, the svccheck lock-order graph —
  // must be hazard-free after a drain, serial and SM-sharded. This is the
  // clean-suite counterpart of the injected-defect tests above.
  const auto w = make_workload();
  for (const int workers : {1, 4}) {
    SvcHazardLog::instance().clear();
    core::SearchService service(checked_config(workers), w.db);
    std::vector<std::future<core::ServiceResult>> futures;
    for (const auto& query : w.queries) {
      core::SearchRequest request;
      request.query = query;
      futures.push_back(service.submit(std::move(request)));
    }
    for (auto& f : futures)
      EXPECT_EQ(f.get().status, core::RequestStatus::kOk);
    service.drain();
    const auto report = service.hazard_report();
    EXPECT_EQ(report.total, 0u)
        << "workers " << workers << "\n" << report.summary();
  }
}

TEST_F(SvcCheckService, ConcurrentDrainFlushesExactlyOnce) {
  const auto w = make_workload();
  auto& counter =
      util::metrics::Registry::instance().counter("service.drain_flushes");
  const std::uint64_t before = counter.value();
  {
    core::SearchService service(checked_config(), w.db);
    auto result = service.search(w.queries[0]);
    EXPECT_EQ(result.status, core::RequestStatus::kOk);
    std::vector<std::thread> drainers;
    for (int i = 0; i < 4; ++i)
      drainers.emplace_back([&service] { service.drain(); });
    for (auto& t : drainers) t.join();
    EXPECT_EQ(counter.value(), before + 1);
  }
  // The destructor drains again; the once-flag still holds.
  EXPECT_EQ(counter.value(), before + 1);
}

}  // namespace
}  // namespace repro
