// The benchmark's own arithmetic and its span recorder: medians and tail
// percentiles of per-query samples, the failure count behind failed_frac,
// and per-layer self time from the spans the traced run records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simt/engine.hpp"
#include "simt/metrics.hpp"

namespace perfbench {

/// A tail percentile must have at least this many samples ranked beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// Median of `xs`; the mean of the two middle values when the count is
/// even, 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

/// A tail percentile: the nearest-rank value of percentile `percentile`
/// and how many samples rank above it.
struct Tail {
  int percentile = 50;
  double value = 0.0;
  std::size_t beyond = 0;
};

/// The highest integer percentile p in [50, 99] whose nearest-rank value
/// (rank ceil(p * n / 100)) still has at least `kTailBeyond` samples ranked
/// above it. A sample too small for any such p falls back to p50, with
/// `beyond` telling how thin the tail is.
[[nodiscard]] Tail tail_percentile(std::vector<double> xs);

/// What can go wrong with one attempted query.
struct QueryOutcome {
  bool threw = false;
  bool degraded = false;    ///< the report says a degradation rung served it
  bool mismatched = false;  ///< alignments differ from the reference
};

/// Counts outcomes into failed_frac. A query with several problems counts
/// once as failed and once under each problem.
struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t threw = 0;
  std::uint64_t degraded = 0;
  std::uint64_t mismatched = 0;

  void add(const QueryOutcome& outcome);
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// One span of the traced run: a call into one layer.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;         ///< index into the span list, -1 for a root
  std::int64_t query = -1;  ///< query sequence number, -1 outside a query
  /// The engine's ProfileRegistry difference across the call.
  repro::simt::ProfileRegistry kernels;
  /// Layer counts recorded at the same boundary (hits, extensions, ...).
  std::vector<std::pair<std::string, double>> counts;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once; a
/// child sticking out of its parent counts only inside it).
[[nodiscard]] std::vector<std::uint64_t> self_times(std::span<const Span> spans);

/// Spans of one name, summed.
struct LayerTime {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-name totals and self times, keyed by span name.
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    std::span<const Span> spans);

/// Records spans in memory. open() snapshots the engine's profile and the
/// clock; close() stores the difference. Spans nest through `parent`.
class SpanRecorder {
 public:
  explicit SpanRecorder(const repro::simt::Engine& engine) : engine_(&engine) {}

  int open(std::string name, int parent, std::int64_t query);
  void close(int id, std::vector<std::pair<std::string, double>> counts = {});

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a Chrome trace (load in Perfetto). Returns false
  /// when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  const repro::simt::Engine* engine_;
  std::vector<Span> spans_;
  std::vector<repro::simt::ProfileRegistry> open_profiles_;
};

}  // namespace perfbench
