// SearchService implementation (DESIGN.md §14): bounded priority queue +
// one session-owning worker thread. All queue state lives behind mutex_;
// the worker holds the lock only while popping/bookkeeping, never while a
// search runs, so submitters are never blocked by in-flight work.
#include "core/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/query_context.hpp"
#include "simt/engine.hpp"
#include "util/fault.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::core {

namespace {

/// Maps a terminal RequestStatus onto the metrics/trace vocabulary and the
/// SearchReport::status field (shared spelling with report.cpp's v3 docs).
const char* report_status_label(RequestStatus s) {
  return request_status_name(s);
}

}  // namespace

SearchService::SearchService(Config config, const bio::SequenceDatabase& db,
                             ServiceConfig service_config)
    : session_(std::move(config), db),
      service_config_(service_config) {
  service_config_.queue_capacity =
      std::max<std::size_t>(1, service_config_.queue_capacity);
  util::metrics::Registry::instance()
      .gauge("service.shards")
      .set(static_cast<double>(session_.num_shards()));
  service_config_.backoff_multiplier =
      std::max(1.0, service_config_.backoff_multiplier);
  if (service_config_.backoff_initial_ms < 0.0)
    service_config_.backoff_initial_ms = 0.0;

  // The service owns the trace session so every request of its lifetime
  // lands on one timeline (TraceSession is passive when an outer owner —
  // e.g. the CLI — already started one).
  const std::string trace_path =
      path_or_env(session_.config().trace_path, "REPRO_TRACE");
  if (!trace_path.empty())
    trace_session_ = std::make_unique<util::TraceSession>(trace_path);

  start_ns_ = util::MonotonicClock::now_ns();

  // Flight recorder (tail-based per-query tracing; util/flight_recorder.hpp).
  flight_recording_ = !service_config_.flight_dir.empty();
  if (flight_recording_) {
    service_config_.flight_ring_events =
        std::max<std::size_t>(1, service_config_.flight_ring_events);
    util::FlightRecorder::instance().configure(
        service_config_.flight_ring_events);
  }

  // Structured JSONL event log (util/log.hpp).
  const std::string event_log_path = path_or_env(
      service_config_.event_log_path, "REPRO_EVENT_LOG");
  if (!event_log_path.empty()) {
    util::log::open(event_log_path);
    event_log_owned_ = util::log::enabled();
    if (event_log_owned_)
      util::log::event(
          "service.start",
          {util::targ("queue_capacity",
                      static_cast<std::uint64_t>(
                          service_config_.queue_capacity)),
           util::targ("slo_ms", service_config_.slo_ms),
           util::targ("flight",
                      flight_recording_ ? "on" : "off")});
  }

  worker_ = std::thread([this] { worker_loop(); });

  // Periodic statusz dumps, on their own thread so a long-running request
  // cannot stall introspection.
  if (!service_config_.statusz_path.empty()) {
    service_config_.statusz_period_ms =
        std::max(1.0, service_config_.statusz_period_ms);
    statusz_thread_ = std::thread([this] { statusz_loop(); });
  }
}

SearchService::~SearchService() {
  drain();
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard lock(statusz_mu_);
    statusz_stop_ = true;
  }
  statusz_cv_.notify_all();
  if (statusz_thread_.joinable()) statusz_thread_.join();
  if (event_log_owned_) util::log::close();
}

std::future<ServiceResult> SearchService::submit(SearchRequest request) {
  std::promise<ServiceResult> promise;
  std::future<ServiceResult> future = promise.get_future();
  auto& registry = util::metrics::Registry::instance();

  // Validate outside the lock: malformed input never occupies a slot.
  try {
    check_search_limits(request.query, session_.db());
  } catch (const SearchError& e) {
    ServiceResult result;
    result.status = RequestStatus::kFailed;
    result.error_code = e.code();
    result.message = e.what();
    result.report.status = report_status_label(result.status);
    registry.counter("service.submitted").add(1);
    registry.counter("service.failed").add(1);
    promise.set_value(std::move(result));
    return future;
  }

  auto pending = std::make_unique<Pending>();
  // Read the clock only when the request carries a deadline or could be
  // admitted — both reads are in submitter program order, so decisions
  // stay deterministic under the virtual clock.
  if (request.deadline_ms > 0.0)
    pending->deadline_ns =
        util::MonotonicClock::now_ns() +
        static_cast<std::uint64_t>(request.deadline_ms * 1e6);
  pending->request = std::move(request);
  pending->promise = std::move(promise);

  const auto prio = static_cast<std::size_t>(pending->request.priority);
  std::string reject_reason;
  bool admitted = false;
  {
    std::lock_guard lock(mutex_);
    stats_.submitted += 1;
    registry.counter("service.submitted").add(1);
    if (!accepting_) {
      reject_reason = "service is draining";
    } else if (queued_ >= service_config_.queue_capacity) {
      reject_reason = "queue at capacity (" +
                      std::to_string(service_config_.queue_capacity) + ")";
    } else if (service_config_.per_priority_limit != 0 &&
               queues_[prio].size() >= service_config_.per_priority_limit) {
      reject_reason = std::string("priority class '") +
                      request_priority_name(pending->request.priority) +
                      "' at its limit (" +
                      std::to_string(service_config_.per_priority_limit) + ")";
    } else {
      pending->admitted_ns = util::MonotonicClock::now_ns();
      stats_.admitted += 1;
      queues_[prio].push_back(std::move(pending));
      queued_ += 1;
      admitted = true;
      registry.counter("service.admitted").add(1);
      registry.gauge("service.queue_depth")
          .set(static_cast<double>(queued_));
    }
  }

  if (admitted) {
    if (util::log::enabled())
      util::log::event(
          "service.admit",
          {util::targ("priority", request_priority_name(
                                      static_cast<RequestPriority>(prio)))});
    cv_.notify_one();
    return future;
  }

  // Rejected: resolve the future immediately — backpressure is explicit.
  {
    std::lock_guard lock(mutex_);
    stats_.rejected += 1;
  }
  registry.counter("service.rejected").add(1);
  if (util::trace_enabled())
    util::trace_instant("service.reject", "service",
                        {util::targ("reason", reject_reason)});
  if (util::log::enabled())
    util::log::event("service.reject",
                     {util::targ("reason", reject_reason)});
  ServiceResult result;
  result.status = RequestStatus::kRejected;
  result.error_code = SearchErrorCode::kRejected;
  result.message = reject_reason;
  result.report.status = report_status_label(result.status);
  pending->promise.set_value(std::move(result));
  return future;
}

ServiceResult SearchService::search(std::vector<std::uint8_t> query,
                                    double deadline_ms,
                                    CancellationToken cancel) {
  SearchRequest request;
  request.query = std::move(query);
  request.deadline_ms = deadline_ms;
  request.cancel = std::move(cancel);
  return submit(std::move(request)).get();
}

void SearchService::pause() {
  std::lock_guard lock(mutex_);
  paused_ = true;
}

void SearchService::resume() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SearchService::drain() {
  {
    std::unique_lock lock(mutex_);
    accepting_ = false;
    paused_ = false;  // a paused service must still be able to drain
    cv_.notify_all();
    util::svc::note_blocking_wait(&mutex_);
    idle_cv_.wait(lock, [this] { return queued_ == 0 && !busy_; });
  }
  // Exactly-once flush: concurrent drain() calls all wait for idle above,
  // but only one of them may tear down the trace session or write the
  // metrics file (TraceSession::reset is not re-entrant, and a double
  // metrics write could interleave). The losers return after the winner's
  // flush completed — call_once blocks them until then.
  std::call_once(drain_flush_once_, [this] {
    util::metrics::Registry::instance()
        .counter("service.drain_flushes")
        .add(1);
    // Flush failures (bad extension, unwritable path) must not abort the
    // drain — it runs from the destructor — so report and keep flushing
    // the remaining surfaces.
    const std::string metrics_path = path_or_env(
        session_.config().metrics_path, "REPRO_METRICS");
    try {
      if (!metrics_path.empty())
        util::metrics::Registry::instance().write_file(metrics_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "drain: metrics flush failed: %s\n", e.what());
    }
    try {
      session_.export_profile();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "drain: profile flush failed: %s\n", e.what());
    }
    if (!service_config_.statusz_path.empty())
      write_statusz(service_config_.statusz_path);
    if (util::log::enabled()) {
      const ServiceStats final_stats = stats();
      util::log::event("service.drain",
                       {util::targ("completed", final_stats.completed),
                        util::targ("rejected", final_stats.rejected),
                        util::targ("failed", final_stats.failed)});
    }
    trace_session_.reset();  // writes the trace file, if we owned a session
  });
}

void SearchService::shutdown() {
  std::vector<std::unique_ptr<Pending>> dropped;
  {
    std::unique_lock lock(mutex_);
    accepting_ = false;
    paused_ = false;
    for (auto& queue : queues_)
      while (!queue.empty()) {
        dropped.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    queued_ = 0;
    stats_.cancelled += dropped.size();
    cv_.notify_all();
    util::svc::note_blocking_wait(&mutex_);
    idle_cv_.wait(lock, [this] { return !busy_; });
  }
  auto& registry = util::metrics::Registry::instance();
  registry.gauge("service.queue_depth").set(0.0);
  for (auto& pending : dropped) {
    registry.counter("service.cancelled").add(1);
    ServiceResult result;
    result.status = RequestStatus::kCancelled;
    result.error_code = SearchErrorCode::kShutdown;
    result.message = "service shut down before the request ran";
    result.report.status = report_status_label(result.status);
    pending->promise.set_value(std::move(result));
  }
}

ServiceStats SearchService::stats() const {
  std::lock_guard lock(mutex_);
  ServiceStats snapshot = stats_;
  snapshot.queue_depth = queued_;
  return snapshot;
}

std::string ServiceStatus::to_json() const {
  auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  auto n = [](std::uint64_t v) { return util::json_num(v); };
  std::string out = "{\"schema\":\"cublastp.statusz.v1\"";
  out += ",\"uptime_ms\":" + util::json_num(uptime_ms);
  out += ",\"accepting\":" + b(accepting);
  out += ",\"paused\":" + b(paused);
  out += ",\"busy\":" + b(busy);
  out += ",\"queues\":{\"interactive\":" + n(queue_depths[0]) +
         ",\"normal\":" + n(queue_depths[1]) +
         ",\"batch\":" + n(queue_depths[2]) +
         ",\"total\":" + n(queue_depth) + "}";
  out += ",\"stats\":{\"submitted\":" + n(stats.submitted) +
         ",\"admitted\":" + n(stats.admitted) +
         ",\"rejected\":" + n(stats.rejected) +
         ",\"completed\":" + n(stats.completed) +
         ",\"cancelled\":" + n(stats.cancelled) +
         ",\"deadline_exceeded\":" + n(stats.deadline_exceeded) +
         ",\"failed\":" + n(stats.failed) +
         ",\"transient_retries\":" + n(stats.transient_retries) + "}";
  if (busy) {
    out += ",\"in_flight\":{\"seq\":" + n(in_flight_seq) +
           ",\"query_length\":" + n(in_flight_query_length) +
           ",\"stage\":" + util::json_str(in_flight_stage) + "}";
  } else {
    out += ",\"in_flight\":null";
  }
  out += ",\"slo\":{\"objective_ms\":" + util::json_num(slo_ms) +
         ",\"ok\":" + n(slo_ok) + ",\"violations\":" + n(slo_violations) +
         ",\"flight_dumps\":" + n(flight_dumps) + "}";
  out += ",\"latency_quantiles_s\":{\"p50\":" + util::json_num(wall_p50_s) +
         ",\"p95\":" + util::json_num(wall_p95_s) +
         ",\"p99\":" + util::json_num(wall_p99_s) + "}";
  out += ",\"profile\":" +
         (profile_summary_json.empty() ? std::string("null")
                                       : profile_summary_json);
  out += "}";
  return out;
}

ServiceStatus SearchService::status_snapshot() const {
  ServiceStatus snapshot;
  const std::uint64_t now_ns = util::MonotonicClock::now_ns();
  {
    std::lock_guard lock(mutex_);
    snapshot.uptime_ms = static_cast<double>(now_ns - start_ns_) * 1e-6;
    snapshot.accepting = accepting_;
    snapshot.paused = paused_;
    snapshot.busy = busy_;
    for (std::size_t i = 0; i < kNumPriorities; ++i)
      snapshot.queue_depths[i] = queues_[i].size();
    snapshot.queue_depth = queued_;
    snapshot.stats = stats_;
    snapshot.stats.queue_depth = queued_;
    snapshot.in_flight_seq = in_flight_seq_;
    snapshot.in_flight_query_length = in_flight_query_length_;
    snapshot.slo_ms = service_config_.slo_ms;
    snapshot.slo_ok = slo_ok_;
    snapshot.slo_violations = slo_violations_;
    snapshot.flight_dumps = flight_dumps_;
  }
  if (snapshot.busy) {
    // The beacon may briefly lag the in-flight bookkeeping (both are
    // updated without a common lock); a stale stage name is acceptable
    // introspection noise.
    const char* stage = current_pipeline_stage();
    if (stage != nullptr) snapshot.in_flight_stage = stage;
  }
  auto& wall = util::metrics::Registry::instance().histogram(
      "service.request_wall_seconds");
  snapshot.wall_p50_s = wall.quantile(0.50);
  snapshot.wall_p95_s = wall.quantile(0.95);
  snapshot.wall_p99_s = wall.quantile(0.99);
  snapshot.profile_summary_json = session_.profiler().summary_json();
  return snapshot;
}

bool SearchService::write_statusz(const std::string& path) const {
  const std::string json = status_snapshot().to_json() + "\n";
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  // Write-then-rename: a reader (or the drain flush racing the periodic
  // thread) never observes a partial document. Unique temp names keep
  // concurrent writers off each other's bytes; rename order picks the
  // winner, and both candidates are complete documents.
  static std::atomic<std::uint64_t> temp_seq{0};
  const std::string temp =
      path + ".tmp" + std::to_string(temp_seq.fetch_add(1));
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out) return false;
    out << json;
    if (!out) return false;
  }
  ec.clear();
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp, ec);
    return false;
  }
  return true;
}

void SearchService::statusz_loop() {
  write_statusz(service_config_.statusz_path);
  std::unique_lock lock(statusz_mu_);
  while (!statusz_stop_) {
    const auto period = std::chrono::duration<double, std::milli>(
        service_config_.statusz_period_ms);
    if (statusz_cv_.wait_for(lock, period, [this] { return statusz_stop_; }))
      break;
    lock.unlock();
    write_statusz(service_config_.statusz_path);
    lock.lock();
  }
}

simt::HazardReport svccheck_snapshot() {
  auto records = util::svc::SvcHazardLog::instance().snapshot();
  // The log appends in detection order, which depends on thread schedules;
  // sort by (kind, subject, detail) so snapshots compare bit-identical.
  std::sort(records.begin(), records.end(),
            [](const util::svc::SvcHazardRecord& a,
               const util::svc::SvcHazardRecord& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.name != b.name) return a.name < b.name;
              return a.detail < b.detail;
            });
  simt::HazardReport report;
  for (const auto& record : records) {
    simt::HazardRecord out;
    switch (record.kind) {
      case util::svc::SvcHazardKind::kLockOrderInversion:
        out.kind = simt::HazardKind::kLockOrderInversion;
        break;
      case util::svc::SvcHazardKind::kBlockedWhileLocked:
        out.kind = simt::HazardKind::kBlockedWhileLocked;
        break;
      case util::svc::SvcHazardKind::kCheckpointGap:
        out.kind = simt::HazardKind::kCheckpointGap;
        break;
    }
    out.kernel = "host:" + record.name;
    out.detail = record.detail;
    report.add(std::move(out));
  }
  return report;
}

simt::HazardReport SearchService::hazard_report() const {
  simt::HazardReport report;
  {
    std::lock_guard lock(hazards_mu_);
    report.merge(hazards_);
  }
  report.merge(svccheck_snapshot());
  bool idle = false;
  {
    std::lock_guard lock(mutex_);
    idle = queued_ == 0 && !busy_;
  }
  // Leak scan only when idle: an in-flight request legitimately holds
  // device buffers, and flagging those would be noise, not a leak.
  if (idle) session_.leak_check(report);
  return report;
}

std::unique_ptr<SearchService::Pending> SearchService::pop_locked() {
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    auto pending = std::move(queue.front());
    queue.pop_front();
    return pending;
  }
  return nullptr;
}

void SearchService::worker_loop() {
  for (;;) {
    std::unique_ptr<Pending> pending;
    {
      std::unique_lock lock(mutex_);
      util::svc::note_blocking_wait(&mutex_);
      cv_.wait(lock,
               [this] { return stop_ || (!paused_ && queued_ > 0); });
      if (stop_) return;
      pending = pop_locked();
      if (pending == nullptr) continue;
      queued_ -= 1;
      busy_ = true;
      util::metrics::Registry::instance()
          .gauge("service.queue_depth")
          .set(static_cast<double>(queued_));
    }

    run_one(*pending);

    {
      std::lock_guard lock(mutex_);
      busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

void SearchService::backoff_wait(double ms) {
  if (ms <= 0.0) return;
  const auto wait_ns = static_cast<std::uint64_t>(ms * 1e6);
  if (util::MonotonicClock::is_virtual()) {
    // Spin on clock reads: each read advances virtual time by 1 µs, so the
    // wait both terminates and is deterministic (its length in reads
    // depends only on `ms`).
    const std::uint64_t target = util::MonotonicClock::now_ns() + wait_ns;
    while (util::MonotonicClock::now_ns() < target) {
    }
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
}

void SearchService::run_one(Pending& pending) {
  auto& registry = util::metrics::Registry::instance();
  const std::uint64_t started_ns = util::MonotonicClock::now_ns();

  ServiceResult result;
  result.service_seq = ++next_seq_;  // worker-only, no lock needed
  result.queue_wait_ms =
      static_cast<double>(started_ns - pending.admitted_ns) * 1e-6;
  registry.histogram("service.queue_wait_seconds")
      .observe(result.queue_wait_ms * 1e-3);

  // Flight recording starts before the queued-expiry check so even a
  // request that never runs leaves a (near-empty) dump explaining why.
  if (flight_recording_)
    util::FlightRecorder::instance().begin_query(result.service_seq);
  note_pipeline_stage("dispatch");
  {
    std::lock_guard lock(mutex_);
    in_flight_seq_ = result.service_seq;
    in_flight_query_length_ = pending.request.query.size();
  }
  if (util::log::enabled())
    util::log::event(
        "service.dispatch",
        {util::targ("request_seq", result.service_seq),
         util::targ("priority",
                    request_priority_name(pending.request.priority)),
         util::targ("queue_wait_ms", result.queue_wait_ms)});

  // Combine the client's handle with the request deadline. The client's
  // own state is never mutated; with_deadline links a child onto it.
  CancellationToken token = pending.request.cancel;
  if (pending.deadline_ns != 0) token = token.with_deadline(pending.deadline_ns);

  const auto finish = [&](RequestStatus status) {
    result.status = status;
    result.wall_ms = static_cast<double>(util::MonotonicClock::now_ns() -
                                         pending.admitted_ns) *
                     1e-6;
    registry.histogram("service.request_wall_seconds")
        .observe(result.wall_ms * 1e-3);
    bool counted_completed = false;
    switch (status) {
      case RequestStatus::kOk:
      case RequestStatus::kDegraded:
        registry.counter("service.completed").add(1);
        counted_completed = true;
        break;
      case RequestStatus::kCancelled:
        registry.counter("service.cancelled").add(1);
        if (util::trace_enabled())
          util::trace_instant("service.cancel", "service", {});
        break;
      case RequestStatus::kDeadlineExceeded:
        registry.counter("service.deadline_exceeded").add(1);
        if (util::trace_enabled())
          util::trace_instant("service.expire", "service", {});
        break;
      default:
        registry.counter("service.failed").add(1);
        break;
    }
    // Completed requests carry the session-stamped status ("ok" /
    // "degraded"); everything else gets the service's terminal label so
    // report.to_json() still says what happened.
    if (!counted_completed) result.report.status = report_status_label(status);

    // SLO accounting + tail-based flight retention: the dump decision can
    // only be made here, after the outcome and wall time are known.
    const bool slo_miss = service_config_.slo_ms > 0.0 &&
                          result.wall_ms > service_config_.slo_ms;
    if (service_config_.slo_ms > 0.0)
      registry.counter(slo_miss ? "service.slo.violations" : "service.slo.ok")
          .add(1);
    bool dumped = false;
    std::string dump_path;
    if (flight_recording_) {
      auto& flight = util::FlightRecorder::instance();
      flight.end_query();
      if (status != RequestStatus::kOk || slo_miss) {
        dump_path = service_config_.flight_dir + "/flight_" +
                    std::to_string(result.service_seq) + "_" +
                    request_status_name(status) + ".json";
        dumped = flight.dump_to_file(
            dump_path,
            {util::targ("status", request_status_name(status)),
             util::targ("wall_ms", result.wall_ms),
             util::targ("slo_ms", service_config_.slo_ms),
             util::targ("slo_miss",
                        static_cast<std::uint64_t>(slo_miss ? 1 : 0))});
        if (dumped) registry.counter("service.flight.dumps").add(1);
      }
    }

    {
      std::lock_guard lock(mutex_);
      switch (status) {
        case RequestStatus::kOk:
        case RequestStatus::kDegraded: stats_.completed += 1; break;
        case RequestStatus::kCancelled: stats_.cancelled += 1; break;
        case RequestStatus::kDeadlineExceeded:
          stats_.deadline_exceeded += 1;
          break;
        default: stats_.failed += 1; break;
      }
      stats_.transient_retries += result.transient_retries;
      if (service_config_.slo_ms > 0.0) {
        if (slo_miss)
          slo_violations_ += 1;
        else
          slo_ok_ += 1;
      }
      if (dumped) flight_dumps_ += 1;
      in_flight_seq_ = 0;
      in_flight_query_length_ = 0;
      // Cleared here — not just in worker_loop — so a snapshot taken
      // after the promise resolves never reports a phantom in-flight
      // request. worker_loop's own clear (after run_one returns) is what
      // wakes drain via idle_cv_.
      busy_ = false;
    }
    note_pipeline_stage(nullptr);
    if (util::log::enabled()) {
      util::log::event(
          "service.complete",
          {util::targ("request_seq", result.service_seq),
           util::targ("status", request_status_name(status)),
           util::targ("wall_ms", result.wall_ms),
           util::targ("retries", static_cast<std::uint64_t>(
                                     result.transient_retries))});
      if (status == RequestStatus::kDegraded)
        util::log::event("service.degraded",
                         {util::targ("request_seq", result.service_seq)});
      if (dumped)
        util::log::event("service.flight_dump",
                         {util::targ("request_seq", result.service_seq),
                          util::targ("path", dump_path)});
    }
    pending.promise.set_value(std::move(result));
  };

  // A request that expired or was cancelled while queued never runs.
  switch (token.stop_reason()) {
    case StopReason::kCancelled:
      result.error_code = SearchErrorCode::kCancelled;
      result.message = "cancelled while queued";
      finish(RequestStatus::kCancelled);
      return;
    case StopReason::kDeadlineExceeded:
      result.error_code = SearchErrorCode::kDeadlineExceeded;
      result.message = "deadline expired while queued";
      finish(RequestStatus::kDeadlineExceeded);
      return;
    case StopReason::kNone: break;
  }

  double backoff_ms = service_config_.backoff_initial_ms;
  for (;;) {
    SearchErrorCode code = SearchErrorCode::kWorkerFailed;
    bool transient = false;
    try {
      result.report = session_.search(
          std::span<const std::uint8_t>(pending.request.query), token);
      result.message.clear();
      result.error_code.reset();
      // Fleet observability (DESIGN.md §17): every completed request
      // dispatched to each shard once; count shards that degraded so an
      // operator can spot a persistently sick fleet unit.
      registry.counter("service.shard.dispatches")
          .add(result.report.shards.size());
      std::uint64_t degraded_shards = 0;
      for (const ShardSummary& shard : result.report.shards)
        if (shard.degraded_blocks != 0 || shard.cache_off_retries != 0)
          ++degraded_shards;
      if (degraded_shards != 0)
        registry.counter("service.shard.degraded").add(degraded_shards);
      // Fold this request's hazards (simtcheck + leakcheck + checkpoint
      // coverage) into the service-lifetime aggregate. Leaf lock, taken
      // engine-idle — never while mutex_ is held.
      {
        std::lock_guard lock(hazards_mu_);
        hazards_.merge(result.report.hazards);
      }
      finish(result.report.degraded() ? RequestStatus::kDegraded
                                      : RequestStatus::kOk);
      return;
    } catch (const SearchError& e) {
      if (e.code() == SearchErrorCode::kCancelled) {
        result.error_code = e.code();
        result.message = e.what();
        finish(RequestStatus::kCancelled);
        return;
      }
      if (e.code() == SearchErrorCode::kDeadlineExceeded) {
        result.error_code = e.code();
        result.message = e.what();
        finish(RequestStatus::kDeadlineExceeded);
        return;
      }
      code = e.code();
      transient = code == SearchErrorCode::kDeviceAllocation ||
                  code == SearchErrorCode::kDeviceTransfer;
      result.message = e.what();
    } catch (const util::FaultInjectedError& e) {
      // A raw fault-point escape (no translation layer in between):
      // classify by the point name, same taxonomy the simt layer uses.
      const std::string_view point = e.point();
      if (point.find("alloc") != std::string_view::npos) {
        code = SearchErrorCode::kDeviceAllocation;
        transient = true;
      } else if (point.find("transfer") != std::string_view::npos) {
        code = SearchErrorCode::kDeviceTransfer;
        transient = true;
      } else {
        code = SearchErrorCode::kDeviceLaunch;
      }
      result.message = e.what();
    } catch (const simt::DeviceError& e) {
      const std::string_view what = e.what();
      if (what.find("transfer") != std::string_view::npos) {
        code = SearchErrorCode::kDeviceTransfer;
        transient = true;
      } else {
        code = SearchErrorCode::kDeviceLaunch;
      }
      result.message = e.what();
    } catch (const std::bad_alloc&) {
      code = SearchErrorCode::kDeviceAllocation;
      transient = true;
      result.message = "device allocation failed (bad_alloc)";
    } catch (const std::exception& e) {
      code = SearchErrorCode::kWorkerFailed;
      result.message = e.what();
    }

    result.error_code = code;
    const bool retries_left =
        result.transient_retries < service_config_.max_transient_retries;
    if (!transient || !retries_left ||
        token.stop_reason() != StopReason::kNone) {
      finish(RequestStatus::kFailed);
      return;
    }

    result.transient_retries += 1;
    registry.counter("service.retries").add(1);
    if (util::trace_enabled())
      util::trace_instant(
          "service.retry", "service",
          {util::targ("attempt",
                      static_cast<std::uint64_t>(result.transient_retries)),
           util::targ("code", to_string(code)),
           util::targ("backoff_ms", backoff_ms)});
    backoff_wait(std::min(backoff_ms, service_config_.backoff_max_ms));
    backoff_ms *= service_config_.backoff_multiplier;
  }
}

}  // namespace repro::core
