// Monotonic wall-clock timers used by every phase of the search engines,
// and the single process-wide clock seam shared with the tracer
// (util/trace.hpp): everything that needs "now" on a monotonic timeline —
// Timer, TraceSpan timestamps, counter samples — reads MonotonicClock, so
// there is exactly one clock abstraction to swap for the deterministic
// virtual mode tests use.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

namespace repro::util {

/// Process-wide monotonic nanosecond clock. Two modes:
///  - wall (default): std::chrono::steady_clock — monotonic, unaffected by
///    system-time adjustments (never system_clock, which can jump).
///  - virtual: an atomic tick counter that advances by one microsecond per
///    read. Timestamps then depend only on the number and per-thread order
///    of clock reads, which makes trace *structure* (names, nesting,
///    counts) reproducible in tests regardless of scheduling jitter.
class MonotonicClock {
 public:
  [[nodiscard]] static std::uint64_t now_ns() {
    if (virtual_mode().load(std::memory_order_relaxed)) [[unlikely]]
      return virtual_ticks().fetch_add(1, std::memory_order_relaxed) * 1000;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Switches between wall and virtual mode; entering virtual mode resets
  /// the tick counter so traces start near t=0.
  static void set_virtual(bool on) {
    if (on) virtual_ticks().store(0, std::memory_order_relaxed);
    virtual_mode().store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool is_virtual() {
    return virtual_mode().load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<bool>& virtual_mode() {
    static std::atomic<bool> mode{false};
    return mode;
  }
  static std::atomic<std::uint64_t>& virtual_ticks() {
    static std::atomic<std::uint64_t> ticks{0};
    return ticks;
  }
};

/// RAII virtual-clock mode for tests: deterministic tick clock inside the
/// scope, wall clock restored on exit.
class VirtualClockScope {
 public:
  VirtualClockScope() { MonotonicClock::set_virtual(true); }
  ~VirtualClockScope() { MonotonicClock::set_virtual(false); }
  VirtualClockScope(const VirtualClockScope&) = delete;
  VirtualClockScope& operator=(const VirtualClockScope&) = delete;
};

/// Simple monotonic stopwatch. Starts running on construction. Reads
/// MonotonicClock, so it follows the virtual mode in tests.
class Timer {
 public:
  Timer() : start_ns_(MonotonicClock::now_ns()) {}

  void reset() { start_ns_ = MonotonicClock::now_ns(); }

  /// Elapsed time in seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return static_cast<double>(MonotonicClock::now_ns() - start_ns_) * 1e-9;
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  std::uint64_t start_ns_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID). Use this to
/// cost a task: unlike wall-clock, it is not inflated by time-slicing
/// against other threads (which matters on machines with fewer cores than
/// workers). This is a CPU-time clock, not a second monotonic-timeline
/// abstraction — timeline reads stay on MonotonicClock. In virtual mode it
/// reads MonotonicClock's ticks, so costs measured with it are as
/// deterministic as Timer's.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
    if (MonotonicClock::is_virtual()) [[unlikely]]
      return static_cast<double>(MonotonicClock::now_ns()) * 1e-9;
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Accumulates elapsed time into a double on destruction; used to attribute
/// wall-clock to named phases without sprinkling Timer bookkeeping around.
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(double& sink) : sink_(sink) {}
  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;
  ~ScopedAccumulator() { sink_ += timer_.seconds(); }

 private:
  double& sink_;
  Timer timer_;
};

}  // namespace repro::util
