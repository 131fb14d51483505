// SearchService: a long-running front-end around one SearchSession
// (DESIGN.md §14) — admission control, priorities, deadlines, cooperative
// cancellation, transient-fault retries, and a drain/shutdown protocol.
// The session runs Config::shards engine shards (DESIGN.md §17), like every
// other front end.
//
// A session answers queries for whoever calls it; a SearchService
// decides *whether* and *when* to answer. Requests enter a bounded
// priority queue through submit(); a single worker thread owns the session
// and drains the queue in priority order (FIFO within a class). The
// service never blocks a submitter: when the queue is full (globally or
// for the request's priority class) the returned future resolves
// immediately with RequestStatus::kRejected — backpressure is explicit and
// cheap, not an unbounded pile-up.
//
//   core::SearchService service(config, db);          // owns the session
//   SearchRequest req;
//   req.query = ...;
//   req.deadline_ms = 50.0;                           // relative budget
//   auto fut = service.submit(std::move(req));
//   ServiceResult r = fut.get();
//   if (r.status == RequestStatus::kOk) use(r.report);
//   service.drain();                                  // finish + flush
//
// Deadlines and cancellation are cooperative: the worker combines the
// client's CancellationToken with the request's absolute deadline
// (CancellationToken::with_deadline) and the pipeline polls the combined
// token at every stage boundary, so an expired or cancelled request aborts
// between stages with kDeadlineExceeded/kCancelled — never mid-kernel,
// and device state unwinds through its RAII owners. Requests whose
// deadline expires while still queued are failed without running at all.
//
// Transient device failures (kDeviceAllocation, kDeviceTransfer — the
// classes a real accelerator surfaces under memory pressure or link
// glitches) are retried with exponential backoff, up to
// ServiceConfig::max_transient_retries, unless the request's token has
// stopped. Everything else fails the request immediately with its
// SearchError code.
//
// Determinism: queue decisions depend only on arrival order and
// configuration; under util::VirtualClockScope, backoff waits spin on
// clock reads (each read advances virtual time) instead of sleeping, so
// admission/deadline/retry decisions are reproducible in tests. A request
// with no deadline and an empty token returns results bit-identical to
// calling SearchSession::search directly.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bio/database.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/search_session.hpp"
#include "simt/simtcheck.hpp"
#include "util/svccheck.hpp"
#include "util/trace.hpp"

namespace repro::core {

/// Scheduling class of a request. Lower value = drained first. Within a
/// class the queue is FIFO.
enum class RequestPriority : std::uint8_t {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};
inline constexpr std::size_t kNumPriorities = 3;

[[nodiscard]] constexpr const char* request_priority_name(RequestPriority p) {
  switch (p) {
    case RequestPriority::kInteractive: return "interactive";
    case RequestPriority::kNormal: return "normal";
    case RequestPriority::kBatch: return "batch";
  }
  return "unknown";
}

/// Service tunables (all have safe defaults).
struct ServiceConfig {
  /// Total queued requests the service will hold (in-flight excluded).
  /// Submissions beyond this are rejected. Minimum 1.
  std::size_t queue_capacity = 16;

  /// Per-priority-class cap. 0 = no per-class cap (only the global
  /// capacity applies). A class at its cap rejects even when the global
  /// queue has room — one flood of batch work cannot starve interactive
  /// admission.
  std::size_t per_priority_limit = 0;

  /// Retries for transient device failures (allocation/transfer). 0
  /// disables retrying.
  std::size_t max_transient_retries = 2;

  /// Exponential backoff between transient retries:
  /// initial * multiplier^attempt, capped at max.
  double backoff_initial_ms = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 64.0;

  // --- simtprof observability (DESIGN.md §16) ----------------------------

  /// Latency objective in milliseconds (0 = none). Requests the worker
  /// resolves slower than this count as SLO violations (service.slo.*
  /// burn counters) and — with flight recording on — trigger a dump even
  /// when they completed ok.
  double slo_ms = 0.0;

  /// Non-empty: per-query flight recording is on. Queries that finish
  /// degraded, errored, cancelled, deadline-exceeded, or past `slo_ms`
  /// dump their bounded event ring here as
  /// `flight_<seq>_<status>.json`; everything else is discarded
  /// (tail-based retention).
  std::string flight_dir;

  /// Per-thread flight ring capacity in events (the memory bound).
  std::size_t flight_ring_events = 4096;

  /// Non-empty: a background thread rewrites this file with
  /// status_snapshot().to_json() every `statusz_period_ms` (and once at
  /// start/drain), giving `watch cat statusz.json` live introspection.
  std::string statusz_path;
  double statusz_period_ms = 500.0;

  /// Non-empty: structured JSONL event log (util/log.hpp) of admission,
  /// dispatch, completion, degradation, flight-dump, and drain events.
  /// Falls back to the REPRO_EVENT_LOG environment variable when empty.
  std::string event_log_path;
};

/// One unit of work for the service.
struct SearchRequest {
  std::vector<std::uint8_t> query;  ///< encoded residues (owned)
  RequestPriority priority = RequestPriority::kNormal;

  /// Relative deadline in milliseconds from admission; 0 = none. Converted
  /// to an absolute MonotonicClock deadline at submit() time.
  double deadline_ms = 0.0;

  /// Optional client cancel handle (empty = not cancellable). The service
  /// links its deadline onto this token; it never mutates client state.
  CancellationToken cancel;
};

/// Terminal status of a submitted request.
enum class RequestStatus : std::uint8_t {
  kOk,                ///< completed, no degradation
  kDegraded,          ///< completed on a lower ladder rung
  kRejected,          ///< admission control refused it (queue full)
  kCancelled,         ///< client token fired before/while running
  kDeadlineExceeded,  ///< deadline expired while queued or mid-pipeline
  kFailed,            ///< non-transient error, or transient retries exhausted
};

[[nodiscard]] constexpr const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kDegraded: return "degraded";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kCancelled: return "cancelled";
    case RequestStatus::kDeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::kFailed: return "failed";
  }
  return "unknown";
}

/// What a submitted request resolves to.
struct ServiceResult {
  RequestStatus status = RequestStatus::kFailed;

  /// The underlying SearchErrorCode when status != kOk/kDegraded
  /// (kRejected/kCancelled/kDeadlineExceeded mirror their own codes).
  std::optional<SearchErrorCode> error_code;
  std::string message;  ///< human-readable failure detail ("" on success)

  /// The full report on success; on failure an empty report whose `status`
  /// field is still stamped (so report.to_json() says what happened).
  SearchReport report;

  double queue_wait_ms = 0.0;  ///< admission -> dequeue (0 when rejected)
  double wall_ms = 0.0;        ///< admission -> resolution
  std::size_t transient_retries = 0;  ///< backoff retries this request used

  /// Monotone per-service completion sequence number (0 = rejected at
  /// admission; the worker never saw it). Tests use it to pin dispatch
  /// order.
  std::uint64_t service_seq = 0;
};

/// Point-in-time counters, readable from any thread.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< kOk + kDegraded
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t transient_retries = 0;
  std::size_t queue_depth = 0;  ///< queued right now (in-flight excluded)
};

/// Point-in-time introspection snapshot (SearchService::status_snapshot):
/// everything an operator needs to answer "what is the service doing right
/// now" — queue shape, the in-flight request and its pipeline stage, SLO
/// burn, latency quantiles, and the continuous profiler's summary.
struct ServiceStatus {
  double uptime_ms = 0.0;
  bool accepting = false;
  bool paused = false;
  bool busy = false;  ///< a request is in flight

  std::array<std::size_t, kNumPriorities> queue_depths{};  ///< per class
  std::size_t queue_depth = 0;                             ///< total

  ServiceStats stats;  ///< cumulative totals (submit/admit/reject/...)

  /// In-flight request (meaningful when busy): its completion sequence
  /// number, query length, and the pipeline-stage checkpoint it most
  /// recently polled ("" before the first checkpoint).
  std::uint64_t in_flight_seq = 0;
  std::size_t in_flight_query_length = 0;
  std::string in_flight_stage;

  /// SLO accounting (ServiceConfig::slo_ms; all zero when no objective).
  double slo_ms = 0.0;
  std::uint64_t slo_ok = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t flight_dumps = 0;

  /// Bucket-interpolated latency quantiles of service.request_wall_seconds.
  double wall_p50_s = 0.0;
  double wall_p95_s = 0.0;
  double wall_p99_s = 0.0;

  /// simt::prof::ContinuousProfiler::summary_json() of the owned session.
  std::string profile_summary_json;

  /// One JSON object (schema "cublastp.statusz.v1").
  [[nodiscard]] std::string to_json() const;
};

/// Translates the process-wide svccheck host-concurrency log
/// (util::svc::SvcHazardLog) into the shared hazard-report schema: lock-
/// order inversions, blocked-while-locked waits, and checkpoint gaps
/// recorded anywhere in the process, sorted by (kind, subject) so the
/// result is bit-identical across runs and thread schedules.
[[nodiscard]] simt::HazardReport svccheck_snapshot();

/// The long-running front-end. One worker thread owns the session;
/// submit() is thread-safe and non-blocking. Destruction drains: queued
/// and in-flight work finishes (honouring deadlines/cancellation), then
/// the worker exits.
class SearchService {
 public:
  /// Validates `config` like SearchSession does (throws
  /// std::invalid_argument on contract violations) and starts the worker.
  /// If the config (or REPRO_TRACE) names a trace file, the service owns
  /// one TraceSession for its whole lifetime, so every request's spans
  /// land in a single timeline.
  SearchService(Config config, const bio::SequenceDatabase& db,
                ServiceConfig service_config = {});
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Non-blocking admission. On rejection (queue full, class at cap, or
  /// service draining/shut down) the future is already resolved with
  /// kRejected and no work happens. Invalid queries (empty, too long)
  /// are rejected here too — kFailed with kInvalidArgument — so malformed
  /// input never occupies a queue slot.
  [[nodiscard]] std::future<ServiceResult> submit(SearchRequest request);

  /// Convenience synchronous call: submit + wait.
  [[nodiscard]] ServiceResult search(std::vector<std::uint8_t> query,
                                     double deadline_ms = 0.0,
                                     CancellationToken cancel = {});

  /// Holds the worker before its next dequeue. Admission continues —
  /// pause() + N×submit() builds a deterministic queue for tests and lets
  /// saturation be exercised without racing the drain.
  void pause();
  /// Releases a pause().
  void resume();

  /// Stops admission, waits until queued + in-flight work has resolved,
  /// and flushes metrics (Config::metrics_path / REPRO_METRICS) and the
  /// owned trace session, if any. Idempotent — the flush happens exactly
  /// once per service lifetime even under concurrent drain() calls (the
  /// trace-session teardown is not re-entrant). submit() after drain()
  /// rejects.
  void drain();

  /// Stops admission and *fails* everything still queued with kCancelled
  /// (code kShutdown); the in-flight request (if any) finishes. Use when
  /// latency of stopping matters more than finishing queued work.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const Config& config() const { return session_.config(); }
  /// Engine shards the owned session runs (after clamping).
  [[nodiscard]] std::size_t num_shards() const {
    return session_.num_shards();
  }

  /// Live introspection snapshot; callable from any thread at any time.
  /// The statusz thread (ServiceConfig::statusz_path) serializes exactly
  /// this to disk.
  [[nodiscard]] ServiceStatus status_snapshot() const;

  /// Writes status_snapshot().to_json() to `path` (creating parent
  /// directories); false on I/O error. The statusz thread calls this
  /// periodically; tests and tools may call it directly.
  bool write_statusz(const std::string& path) const;

  /// The owned session's continuous profiler (always collecting).
  [[nodiscard]] const simt::prof::ContinuousProfiler& profiler() const {
    return session_.profiler();
  }

  /// Point-in-time hazard aggregate for the whole service: every completed
  /// request's SearchReport::hazards (simtcheck + per-query leakcheck +
  /// checkpoint coverage), the svccheck host-concurrency log, and — only
  /// when the service is idle (nothing queued or in flight) — a session-
  /// generation leak scan, so a drained service asserting zero hazards
  /// also asserts zero leaked device allocations. Callable from any
  /// thread.
  [[nodiscard]] simt::HazardReport hazard_report() const;

 private:
  struct Pending {
    SearchRequest request;
    std::promise<ServiceResult> promise;
    std::uint64_t admitted_ns = 0;   ///< MonotonicClock at admission
    std::uint64_t deadline_ns = 0;   ///< absolute; 0 = none
  };

  void worker_loop();
  void statusz_loop();
  /// Pops the highest-priority pending request; null when queues are empty.
  [[nodiscard]] std::unique_ptr<Pending> pop_locked();
  void run_one(Pending& pending);
  /// Waits `ms` between transient retries. Under the virtual clock this
  /// spins on clock reads (deterministic); on the wall clock it sleeps.
  static void backoff_wait(double ms);

  /// The owned session (Config::shards engine shards; one by default).
  SearchSession session_;
  ServiceConfig service_config_;

  // CheckedMutex + condition_variable_any: plain mutex semantics plus
  // svccheck lock-order tracking (see util/svccheck.hpp).
  mutable util::svc::CheckedMutex mutex_{"core.service.queue"};
  std::condition_variable_any cv_;        ///< worker wakeup
  std::condition_variable_any idle_cv_;   ///< drain() wakeup
  std::array<std::deque<std::unique_ptr<Pending>>, kNumPriorities> queues_;
  std::size_t queued_ = 0;    ///< total across queues_
  bool busy_ = false;         ///< worker is running a request
  bool paused_ = false;
  bool accepting_ = true;
  bool stop_ = false;         ///< worker exit flag (set by destructor)

  ServiceStats stats_;             ///< guarded by mutex_
  std::uint64_t next_seq_ = 0;     ///< completion sequence (worker only)

  // Introspection state (guarded by mutex_ unless noted).
  std::uint64_t start_ns_ = 0;     ///< MonotonicClock at construction
  std::uint64_t in_flight_seq_ = 0;          ///< 0 = idle
  std::size_t in_flight_query_length_ = 0;
  std::uint64_t slo_ok_ = 0;
  std::uint64_t slo_violations_ = 0;
  std::uint64_t flight_dumps_ = 0;
  bool flight_recording_ = false;  ///< set once in the constructor
  bool event_log_owned_ = false;   ///< this service opened util::log

  /// Per-request hazard aggregate (merged by the worker after each
  /// completed request). Its own leaf lock: hazard_report() must not
  /// contend with admission.
  mutable util::svc::CheckedMutex hazards_mu_{"core.service.hazards"};
  simt::HazardReport hazards_;  ///< guarded by hazards_mu_

  std::once_flag drain_flush_once_;  ///< drain() flushes exactly once
  std::unique_ptr<util::TraceSession> trace_session_;
  std::thread worker_;

  // statusz dump thread (only started when ServiceConfig::statusz_path is
  // set). Its own plain mutex/cv pair: the thread must wake promptly for
  // teardown without contending with the queue lock.
  std::mutex statusz_mu_;
  std::condition_variable statusz_cv_;
  bool statusz_stop_ = false;
  std::thread statusz_thread_;
};

}  // namespace repro::core
