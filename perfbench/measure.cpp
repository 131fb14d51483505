#include "measure.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "util/json.hpp"

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

Tail tail_percentile(std::vector<double> xs) {
  Tail tail;
  if (xs.empty()) return tail;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  auto rank = [n](int p) {  // nearest rank, 1-based
    return std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
  };
  for (int p = 99; p >= 50; --p) {
    if (n - rank(p) >= kTailBeyond || p == 50) {
      tail.percentile = p;
      tail.value = xs[rank(p) - 1];
      tail.beyond = n - rank(p);
      return tail;
    }
  }
  return tail;
}

void FailureCount::add(const QueryOutcome& outcome) {
  ++attempted;
  if (outcome.threw) ++threw;
  if (outcome.degraded) ++degraded;
  if (outcome.mismatched) ++mismatched;
  if (outcome.threw || outcome.degraded || outcome.mismatched) ++failed;
}

std::vector<std::uint64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0, reach = 0;
    for (const auto& [lo, hi] : kids) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(std::span<const Span> spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[spans[i].name];
    ++layer.calls;
    layer.total_ns += spans[i].duration_ns();
    layer.self_ns += self[i];
  }
  return layers;
}

int SpanRecorder::open(std::string name, int parent, std::int64_t query) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.query = query;
  spans_.push_back(std::move(span));
  open_profiles_.push_back(engine_->profile());
  spans_.back().start_ns = now_ns();
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id,
                         std::vector<std::pair<std::string, double>> counts) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  span.kernels =
      engine_->profile().diff(open_profiles_[static_cast<std::size_t>(id)]);
  open_profiles_[static_cast<std::size_t>(id)] = {};
  span.counts = std::move(counts);
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  using repro::util::json_num;
  using repro::util::json_str;
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_str(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_num(static_cast<double>(s.start_ns - origin) / 1e3)
        << ", \"dur\": " << json_num(static_cast<double>(s.duration_ns()) / 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"query\": " << s.query;
    for (const auto& [key, value] : s.counts)
      out << ", " << json_str(key) << ": " << json_num(value);
    for (const auto& [kernel, stats] : s.kernels.kernels())
      out << ", " << json_str(kernel) << ": {\"warp_ops\": "
          << json_num(stats.vec_ops)
          << ", \"modeled_ms\": " << json_num(stats.time_ms)
          << ", \"bytes\": " << json_num(stats.st_bytes_requested) << "}";
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
