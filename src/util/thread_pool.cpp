#include "util/thread_pool.hpp"

#include <atomic>
#include <cassert>
#include <memory>
#include <utility>

#include "util/fault.hpp"
#include "util/trace.hpp"

namespace repro::util {

namespace {

/// Joins every future (so no task can still be touching caller state when
/// we unwind), then rethrows the exception of the first failing future in
/// submission order — the deterministic-join contract all the parallel_*
/// entry points share.
void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      svc::note_blocking_wait(nullptr);  // future join parks this thread
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : name_(std::move(name)),
      task_span_name_(name_ + ".task"),
      mutex_("util.thread_pool." + name_) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  svc::note_blocking_wait(nullptr);  // joining while holding a lock stalls it
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // Sticky: names this thread's trace track for every session it records
  // into, even ones started after the pool was built.
  Tracer::set_thread_name(name_ + "-worker-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      svc::note_blocking_wait(&mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0 && tasks_.empty()) idle_cv_.notify_all();
    }
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // The task span opens and closes inside the packaged task, so it is
  // recorded before the future becomes ready: a caller that joins the
  // future may end its trace or flight-record query right away.
  auto packaged = std::make_shared<std::packaged_task<void()>>(
      [this, task = std::move(task)] {
        TraceSpan span(task_span_name_, "pool");
        task();
      });
  auto future = packaged->get_future();
  {
    std::lock_guard lock(mutex_);
    assert(!stop_);
    tasks_.emplace([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, workers_.size());
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(n, lo + per);
    if (lo >= hi) break;
    futures.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  join_all(futures);
}

void ThreadPool::parallel_for_dynamic(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t chunks = std::min(n, workers_.size());
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([next, n, &fn] {
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    }));
  }
  join_all(futures);
}

void ThreadPool::run_shards(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            const std::atomic<bool>* external_cancel) {
  if (n == 0) return;
  // Once any shard throws, shards that have not started yet are skipped —
  // their results would be discarded during unwinding anyway, and skipping
  // them bounds the damage a poisoned launch can do. The store/load pair is
  // release/acquire: a shard that observes the flag and skips must also
  // observe everything the failing (or cancelling) thread wrote before
  // raising it, so the skip decision is never based on a torn view of the
  // caller's state.
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t shard = 0; shard < n; ++shard)
    futures.push_back(submit([shard, &fn, cancelled, external_cancel] {
      if (cancelled->load(std::memory_order_acquire)) return;
      if (external_cancel != nullptr &&
          external_cancel->load(std::memory_order_acquire))
        return;
      try {
        // "util.worker" models a worker thread dying mid-shard.
        fault_point_throw("util.worker");
        fn(shard);
      } catch (...) {
        cancelled->store(true, std::memory_order_release);
        throw;
      }
    }));
  join_all(futures);
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  svc::note_blocking_wait(&mutex_);
  idle_cv_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

}  // namespace repro::util
