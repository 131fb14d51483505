// Observability-layer tests: the Chrome-trace writer, the metrics
// registry, the clock seam, and the structured run report.
//
// The JSON emitted by the tracer/metrics/report writers is validated with
// a deliberately strict recursive-descent parser defined here, so a sloppy
// writer cannot self-certify: duplicate keys, trailing commas, bare
// NaN/inf tokens, and unterminated strings all fail the parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bio/generator.hpp"
#include "core/cublastp.hpp"
#include "core/kernels.hpp"
#include "util/makespan.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro {
namespace {

// ---------------------------------------------------------------------------
// Strict JSON parser (validation only; throws std::runtime_error).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end())
      throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return object.count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      if (v.object.count(key.string) != 0)
        fail("duplicate key: " + key.string);
      skip_ws();
      expect(':');
      v.object.emplace(key.string, value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') { v.string += c; continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'b': v.string += '\b'; break;
        case 'f': v.string += '\f'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            if (!std::isxdigit(static_cast<unsigned char>(h)))
              fail("bad \\u escape");
          }
          pos_ += 4;
          v.string += '?';  // value unimportant for these tests
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("bad fraction");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("bad exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

// ---------------------------------------------------------------------------
// Trace helpers.
// ---------------------------------------------------------------------------

/// Parses a Chrome trace and returns its traceEvents array after checking
/// the envelope and per-event invariants every consumer relies on.
JsonValue parse_trace(const std::string& json) {
  JsonValue root = parse_json(json);
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");
  const JsonValue& events = root.at("traceEvents");
  EXPECT_EQ(events.kind, JsonValue::Kind::kArray);
  for (const JsonValue& e : events.array) {
    EXPECT_EQ(e.kind, JsonValue::Kind::kObject);
    const std::string& ph = e.at("ph").string;
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M") << ph;
    EXPECT_FALSE(e.at("name").string.empty());
    EXPECT_GE(e.at("pid").number, 1.0);
    if (ph == "X") {
      EXPECT_GE(e.at("ts").number, 0.0);
      EXPECT_GE(e.at("dur").number, 0.0);
    }
    if (ph == "i") {
      EXPECT_EQ(e.at("s").string, "t");
    }
    if (ph == "C") {
      EXPECT_TRUE(e.at("args").has("value"));
    }
  }
  return events;
}

std::set<std::string> event_names(const JsonValue& events) {
  std::set<std::string> names;
  for (const JsonValue& e : events.array)
    if (e.at("ph").string != "M") names.insert(e.at("name").string);
  return names;
}

std::set<std::string> thread_names(const JsonValue& events, int pid) {
  std::set<std::string> names;
  for (const JsonValue& e : events.array)
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name" &&
        static_cast<int>(e.at("pid").number) == pid)
      names.insert(e.at("args").at("name").string);
  return names;
}

/// Order-independent structural digest: one "ph|name|cat" line per non-
/// metadata event, sorted. `exclude` drops categories whose event counts
/// legitimately vary (per-worker shard spans, pool task spans) when
/// comparing runs with different engine_workers.
std::vector<std::string> structural_digest(
    const JsonValue& events, const std::set<std::string>& exclude = {}) {
  std::vector<std::string> digest;
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M") continue;
    const std::string cat = e.has("cat") ? e.at("cat").string : "";
    if (exclude.count(cat) != 0) continue;
    digest.push_back(ph + "|" + e.at("name").string + "|" + cat);
  }
  std::sort(digest.begin(), digest.end());
  return digest;
}

struct Workload {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
};

Workload make_workload(std::size_t query_len = 127, std::size_t seqs = 40,
                       std::uint64_t seed = 7) {
  Workload w;
  w.query = bio::make_benchmark_query(query_len).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(seqs);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, seed);
  w.db = gen.generate(w.query);
  return w;
}

core::Config small_config(int engine_workers = 1) {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;
  config.bin_capacity = 64;
  config.cpu_threads = 2;
  config.engine_workers = engine_workers;
  return config;
}

/// Runs a search inside a trace session and returns the serialized trace.
std::string traced_search(const core::Config& config, const Workload& w,
                          core::SearchReport* report_out = nullptr) {
  EXPECT_TRUE(util::Tracer::instance().start());
  auto report = core::CuBlastp(config).search(w.query, w.db);
  if (report_out != nullptr) *report_out = std::move(report);
  return util::Tracer::instance().stop_json();
}

// ---------------------------------------------------------------------------
// Tracer tests.
// ---------------------------------------------------------------------------

TEST(TraceWriter, ValidJsonUnderConcurrentSpans) {
  ASSERT_TRUE(util::Tracer::instance().start());
  {
    util::ThreadPool pool(4, "stress");
    for (int t = 0; t < 64; ++t) {
      pool.submit([t] {
        util::TraceSpan outer("task " + std::to_string(t), "stress");
        outer.arg("hostile \"key\"", "va\\lue\nwith\tescapes");
        outer.arg("index", t);
        util::TraceSpan inner("inner", "stress");
        util::trace_instant("tick", "stress",
                            {util::targ("t", static_cast<std::int64_t>(t))});
        util::trace_counter("stress_counter", static_cast<double>(t));
      });
    }
    pool.wait_idle();
  }
  const std::string json = util::Tracer::instance().stop_json();
  const JsonValue events = parse_trace(json);
  const auto names = event_names(events);
  EXPECT_TRUE(names.count("task 0"));
  EXPECT_TRUE(names.count("inner"));
  EXPECT_TRUE(names.count("tick"));
  EXPECT_TRUE(names.count("stress_counter"));
  // Worker tracks carry the pool name.
  const auto tracks = thread_names(events, 1);
  const bool has_stress_worker = std::any_of(
      tracks.begin(), tracks.end(), [](const std::string& t) {
        return t.rfind("stress-worker-", 0) == 0;
      });
  EXPECT_TRUE(has_stress_worker) << json.substr(0, 400);
}

TEST(TraceWriter, SpanNestingAndThreadTracks) {
  util::VirtualClockScope virtual_clock;
  ASSERT_TRUE(util::Tracer::instance().start());
  {
    util::TraceSpan outer("outer", "t");
    {
      util::TraceSpan inner("inner", "t");
      util::trace_instant("mark", "t");
    }
  }
  std::thread named([] {
    util::Tracer::set_thread_name("my-thread");
    util::TraceSpan span("elsewhere", "t");
  });
  named.join();
  const JsonValue events = parse_trace(util::Tracer::instance().stop_json());

  const JsonValue *outer = nullptr, *inner = nullptr, *elsewhere = nullptr;
  for (const JsonValue& e : events.array) {
    if (e.at("ph").string == "M") continue;
    if (e.at("name").string == "outer") outer = &e;
    if (e.at("name").string == "inner") inner = &e;
    if (e.at("name").string == "elsewhere") elsewhere = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(elsewhere, nullptr);

  // Nesting by containment, on the same track.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_LE(outer->at("ts").number, inner->at("ts").number);
  EXPECT_GE(outer->at("ts").number + outer->at("dur").number,
            inner->at("ts").number + inner->at("dur").number);
  // The named thread records on its own track.
  EXPECT_NE(elsewhere->at("tid").number, outer->at("tid").number);
  const auto tracks = thread_names(events, 1);
  EXPECT_TRUE(tracks.count("main"));
  EXPECT_TRUE(tracks.count("my-thread"));
}

TEST(TraceWriter, SearchTraceCoversAllPhases) {
  const auto w = make_workload();
  const std::string json = traced_search(small_config(/*engine_workers=*/4), w);
  const JsonValue events = parse_trace(json);
  const auto names = event_names(events);

  // The five fine-grained GPU phases.
  for (const char* kernel :
       {core::kKernelDetection, core::kKernelScan, core::kKernelSort,
        core::kKernelFilter, core::kKernelExtension})
    EXPECT_TRUE(names.count(kernel)) << kernel;
  // PCIe transfers.
  for (const char* label : {"h2d_query", "h2d_block", "d2h_extensions"})
    EXPECT_TRUE(names.count(label)) << label;
  // Pipeline structure.
  for (const char* span :
       {"cublastp.search", "query_prep", "db_block 0", "db_block 2",
        "gpu_attempt", "gapped_stage", "finalize"})
    EXPECT_TRUE(names.count(span)) << span;
  // Counter tracks.
  EXPECT_TRUE(names.count("hits_detected_total"));
  EXPECT_TRUE(names.count("hits_after_filter_total"));
  // Per-worker shard spans from the SM-sharded engine.
  EXPECT_TRUE(names.count(std::string(core::kKernelDetection) + "/shard"));
  // Which worker drains which task from the pool's FIFO is scheduling-
  // dependent, but at least one engine worker track must have recorded.
  const auto tracks = thread_names(events, 1);
  const bool has_engine_worker_track = std::any_of(
      tracks.begin(), tracks.end(), [](const std::string& t) {
        return t.rfind("engine-worker-", 0) == 0;
      });
  EXPECT_TRUE(has_engine_worker_track);

  // The modeled Fig. 12 pipeline process: a GPU chain track plus modeled
  // CPU worker tracks carrying gapped/traceback phase spans.
  const auto modeled_tracks = thread_names(events, 2);
  EXPECT_TRUE(modeled_tracks.count("GPU + PCIe (modeled)"));
  EXPECT_TRUE(modeled_tracks.count("cpu-worker-0 (modeled)"));
  bool saw_gapped = false, saw_gpu_chain = false;
  for (const JsonValue& e : events.array) {
    if (e.at("ph").string == "M" ||
        static_cast<int>(e.at("pid").number) != 2)
      continue;
    if (e.at("name").string == "gapped") saw_gapped = true;
    if (e.at("name").string == "gpu chain") saw_gpu_chain = true;
  }
  EXPECT_TRUE(saw_gapped);
  EXPECT_TRUE(saw_gpu_chain);
}

TEST(TraceWriter, DegradationInstantsUnderFaults) {
  const auto w = make_workload();
  auto config = small_config();
  // Every GPU launch fails: each block walks the whole ladder down to the
  // CPU fallback, emitting one instant per rung transition.
  config.fault_schedule = "simt.launch:every=1";
  core::SearchReport report;
  const std::string json = traced_search(config, w, &report);
  ASSERT_EQ(report.degraded_blocks, config.db_blocks);
  const JsonValue events = parse_trace(json);
  const auto names = event_names(events);
  EXPECT_TRUE(names.count("degrade.cache_off_retry"));
  EXPECT_TRUE(names.count("degrade.gpu_exhausted"));
  EXPECT_TRUE(names.count("degrade.cpu_fallback"));
  EXPECT_TRUE(names.count("cpu_fallback"));
  EXPECT_TRUE(names.count("faults_absorbed"));
}

TEST(TraceWriter, BinOverflowInstantsUnderFaults) {
  const auto w = make_workload();
  auto config = small_config();
  config.fault_schedule = "core.bin_overflow:nth=1";
  core::SearchReport report;
  const std::string json = traced_search(config, w, &report);
  ASSERT_GE(report.bin_overflow_retries, 1u);
  const auto names = event_names(parse_trace(json));
  EXPECT_TRUE(names.count("bin_overflow_retry"));
  EXPECT_TRUE(names.count("bin_capacity"));
}

TEST(TraceWriter, SessionComposition) {
  const auto dir = std::filesystem::path(::testing::TempDir());
  const auto outer_path = (dir / "outer_trace.json").string();
  const auto inner_path = (dir / "inner_trace.json").string();
  std::filesystem::remove(outer_path);
  std::filesystem::remove(inner_path);
  {
    util::TraceSession outer(outer_path);
    EXPECT_TRUE(outer.owned());
    {
      util::TraceSession inner(inner_path);
      EXPECT_FALSE(inner.owned());  // joins the outer session
      util::TraceSpan span("joined_work", "t");
    }
    // The inner scope closing must not have ended the session.
    EXPECT_TRUE(util::trace_enabled());
  }
  EXPECT_FALSE(util::trace_enabled());
  EXPECT_FALSE(std::filesystem::exists(inner_path));
  std::ifstream in(outer_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto names = event_names(parse_trace(buffer.str()));
  EXPECT_TRUE(names.count("joined_work"));
}

TEST(TraceWriter, ReproTraceEnvironmentVariable) {
  const auto path =
      (std::filesystem::path(::testing::TempDir()) / "env_trace.json")
          .string();
  std::filesystem::remove(path);
  ::setenv("REPRO_TRACE", path.c_str(), 1);
  const auto w = make_workload();
  (void)core::CuBlastp(small_config()).search(w.query, w.db);
  ::unsetenv("REPRO_TRACE");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto names = event_names(parse_trace(buffer.str()));
  EXPECT_TRUE(names.count("cublastp.search"));
}

// ---------------------------------------------------------------------------
// Determinism contracts.
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, VirtualClockStructureStableAcrossRepeats) {
  const auto w = make_workload();
  const auto config = small_config(/*engine_workers=*/4);
  util::VirtualClockScope virtual_clock;
  const auto digest1 =
      structural_digest(parse_trace(traced_search(config, w)));
  const auto digest2 =
      structural_digest(parse_trace(traced_search(config, w)));
  EXPECT_EQ(digest1, digest2);
  EXPECT_FALSE(digest1.empty());
}

TEST(TraceDeterminism, VirtualClockStructureStableAcrossWorkerCounts) {
  const auto w = make_workload();
  util::VirtualClockScope virtual_clock;
  // Shard spans and pool task spans legitimately scale with the worker
  // count; everything else must be identical between a serial engine and
  // the 4-worker SM-sharded engine.
  const std::set<std::string> varying = {"simt.shard", "pool"};
  const auto serial = structural_digest(
      parse_trace(traced_search(small_config(1), w)), varying);
  const auto parallel = structural_digest(
      parse_trace(traced_search(small_config(4), w)), varying);
  EXPECT_EQ(serial, parallel);
}

TEST(TraceDeterminism, DisabledTracingKeepsResultsAndStatsBitIdentical) {
  const auto w = make_workload();
  const auto config = small_config(/*engine_workers=*/2);
  ASSERT_FALSE(util::trace_enabled());
  const auto plain = core::CuBlastp(config).search(w.query, w.db);

  core::SearchReport traced;
  const std::string json = traced_search(config, w, &traced);
  ASSERT_FALSE(util::trace_enabled());
  parse_trace(json);

  EXPECT_EQ(plain.result.alignments, traced.result.alignments);
  EXPECT_EQ(plain.result.counters.hits_detected,
            traced.result.counters.hits_detected);
  EXPECT_EQ(plain.result.counters.hits_after_filter,
            traced.result.counters.hits_after_filter);

  // Per-kernel KernelStats must match bit for bit: tracing observes, it
  // never perturbs the modeled machine. Address-keyed counters (rocache
  // hits/misses, ld/st *transactions* = 32-byte sectors touched, and the
  // modeled time derived from them) are excluded: the cache and coalescing
  // models hash real heap addresses, which differ between any two searches
  // in one process whether or not tracing is on — engine_parallel_test
  // pins those within a single search instead.
  ASSERT_EQ(plain.profile.kernels().size(), traced.profile.kernels().size());
  for (const auto& [name, k] : plain.profile.kernels()) {
    ASSERT_TRUE(traced.profile.has(name)) << name;
    const auto& t = traced.profile.at(name);
    EXPECT_EQ(k.vec_ops, t.vec_ops) << name;
    EXPECT_EQ(k.active_lane_sum, t.active_lane_sum) << name;
    EXPECT_EQ(k.ld_requests, t.ld_requests) << name;
    EXPECT_EQ(k.ld_bytes_requested, t.ld_bytes_requested) << name;
    EXPECT_EQ(k.st_requests, t.st_requests) << name;
    EXPECT_EQ(k.st_bytes_requested, t.st_bytes_requested) << name;
    EXPECT_EQ(k.shared_ops, t.shared_ops) << name;
    EXPECT_EQ(k.shared_conflict_passes, t.shared_conflict_passes) << name;
    EXPECT_EQ(k.atomic_ops, t.atomic_ops) << name;
    EXPECT_EQ(k.atomic_serial_passes, t.atomic_serial_passes) << name;
    EXPECT_EQ(k.num_blocks, t.num_blocks) << name;
    EXPECT_EQ(k.shared_bytes, t.shared_bytes) << name;
    EXPECT_EQ(k.occupancy, t.occupancy) << name;  // exact, not approximate
  }
}

// ---------------------------------------------------------------------------
// Clock seam.
// ---------------------------------------------------------------------------

TEST(MonotonicClock, VirtualModeCountsTicksDeterministically) {
  {
    util::VirtualClockScope scope;
    ASSERT_TRUE(util::MonotonicClock::is_virtual());
    const auto a = util::MonotonicClock::now_ns();
    const auto b = util::MonotonicClock::now_ns();
    const auto c = util::MonotonicClock::now_ns();
    EXPECT_EQ(b - a, 1000u);  // one microsecond per read
    EXPECT_EQ(c - b, 1000u);
    util::Timer timer;
    EXPECT_GT(timer.seconds(), 0.0);  // the read itself advances the clock
    // Thread CPU time reads the same ticks, so per-seed costs stay
    // deterministic under the virtual clock.
    util::ThreadCpuTimer cpu;
    EXPECT_NEAR(cpu.seconds(), 1e-6, 1e-12);
  }
  EXPECT_FALSE(util::MonotonicClock::is_virtual());
  const auto a = util::MonotonicClock::now_ns();
  const auto b = util::MonotonicClock::now_ns();
  EXPECT_GE(b, a);  // steady_clock is monotonic
}

// ---------------------------------------------------------------------------
// list_schedule (the placement twin of list_schedule_makespan).
// ---------------------------------------------------------------------------

TEST(ListSchedule, PlacementsMatchMakespanModel) {
  const std::vector<double> costs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    const auto tasks = util::list_schedule(costs, workers);
    ASSERT_EQ(tasks.size(), costs.size());
    double max_finish = 0.0;
    std::vector<double> worker_cursor(workers, 0.0);
    for (const auto& t : tasks) {
      ASSERT_LT(t.worker, workers);
      EXPECT_GE(t.start, worker_cursor[t.worker]);  // no overlap per worker
      EXPECT_DOUBLE_EQ(t.finish, t.start + costs[t.index]);
      worker_cursor[t.worker] = t.finish;
      max_finish = std::max(max_finish, t.finish);
    }
    EXPECT_DOUBLE_EQ(max_finish,
                     util::list_schedule_makespan(costs, workers));
  }
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramRecord) {
  auto& registry = util::metrics::Registry::instance();
  auto& counter = registry.counter("test.m1.counter");
  counter.reset();
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  auto& gauge = registry.gauge("test.m1.gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);

  auto& histogram = registry.histogram("test.m1.histogram");
  histogram.reset();
  histogram.observe(0.5e-6);  // bucket 0 (<= 1e-6)
  histogram.observe(3e-6);    // bucket 2 (<= 4e-6)
  histogram.observe(1e9);     // +Inf bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.bucket_count(0), 1u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(util::metrics::Histogram::kBuckets), 1u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5e-6 + 3e-6 + 1e9);
}

TEST(Metrics, JsonExportIsStrictlyValid) {
  auto& registry = util::metrics::Registry::instance();
  registry.counter("test.m2.counter").add(7);
  registry.gauge("test.m2.gauge").set(1.25);
  registry.histogram("test.m2.histogram").observe(0.001);
  const JsonValue root = parse_json(registry.to_json());
  EXPECT_GE(root.at("counters").at("test.m2.counter").number, 7.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.m2.gauge").number, 1.25);
  const JsonValue& h = root.at("histograms").at("test.m2.histogram");
  EXPECT_GE(h.at("count").number, 1.0);
  EXPECT_EQ(h.at("buckets").kind, JsonValue::Kind::kArray);
}

TEST(Metrics, PrometheusExportFormat) {
  auto& registry = util::metrics::Registry::instance();
  auto& counter = registry.counter("test.m3.counter");
  counter.reset();
  counter.add(5);
  auto& histogram = registry.histogram("test.m3.hist");
  histogram.reset();
  histogram.observe(0.5e-6);
  histogram.observe(3e-6);
  const std::string text = registry.to_prometheus();

  EXPECT_NE(text.find("# TYPE repro_test_m3_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("repro_test_m3_counter 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE repro_test_m3_hist histogram"),
            std::string::npos);
  // Cumulative le buckets: the 4e-06 bucket already includes the 1e-06
  // observation, and +Inf carries the total.
  EXPECT_NE(text.find("repro_test_m3_hist_bucket{le=\"1e-06\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("repro_test_m3_hist_bucket{le=\"4e-06\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("repro_test_m3_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("repro_test_m3_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("repro_test_m3_hist_sum"), std::string::npos);
}

TEST(Metrics, PrometheusNameSanitization) {
  EXPECT_EQ(util::metrics::prometheus_name("engine.launches"),
            "repro_engine_launches");
  EXPECT_EQ(util::metrics::prometheus_name("weird-name with spaces"),
            "repro_weird_name_with_spaces");
}

TEST(Metrics, WriteFilePicksFormatByExtension) {
  auto& registry = util::metrics::Registry::instance();
  registry.counter("test.m4.counter").add(1);
  const auto dir = std::filesystem::path(::testing::TempDir());
  const auto prom_path = (dir / "metrics_out.prom").string();
  const auto json_path = (dir / "metrics_out.json").string();
  ASSERT_TRUE(registry.write_file(prom_path));
  ASSERT_TRUE(registry.write_file(json_path));
  std::stringstream prom, json;
  prom << std::ifstream(prom_path).rdbuf();
  json << std::ifstream(json_path).rdbuf();
  EXPECT_NE(prom.str().find("# TYPE"), std::string::npos);
  parse_json(json.str());  // throws if not valid JSON
}

TEST(Metrics, SearchPopulatesEngineAndCoreMetrics) {
  auto& registry = util::metrics::Registry::instance();
  registry.reset_values();
  const auto w = make_workload();
  (void)core::CuBlastp(small_config()).search(w.query, w.db);
  EXPECT_GE(registry.counter("core.searches").value(), 1u);
  EXPECT_GT(registry.counter("engine.launches").value(), 0u);
  EXPECT_GT(registry.counter("engine.transfer_bytes").value(), 0u);
  EXPECT_GE(registry.histogram("core.search_wall_seconds").count(), 1u);
}

// ---------------------------------------------------------------------------
// Structured run report.
// ---------------------------------------------------------------------------

TEST(SearchReport, ToJsonIsStrictlyValidAndComplete) {
  const auto w = make_workload();
  const auto report = core::CuBlastp(small_config()).search(w.query, w.db);
  const JsonValue root = parse_json(report.to_json());
  EXPECT_EQ(root.at("schema").string, "cublastp.search_report.v5");
  EXPECT_EQ(root.at("status").string, "ok");
  EXPECT_GT(root.at("wall_ms").number, 0.0);
  EXPECT_FALSE(root.has("prefilter"));
  ASSERT_FALSE(root.at("shards").array.empty());
  for (const JsonValue& shard : root.at("shards").array)
    EXPECT_FALSE(shard.has("backends"));
  EXPECT_GT(root.at("gpu_ms").at("hit_detection").number, 0.0);
  EXPECT_GT(root.at("counters").at("hits_detected").number, 0.0);
  EXPECT_EQ(root.at("degradation").at("degraded").number, 0.0);
  EXPECT_TRUE(root.at("profile").has(core::kKernelDetection));
  EXPECT_GT(root.at("alignments").at("count").number, 0.0);
  EXPECT_EQ(root.at("alignments").at("top").kind, JsonValue::Kind::kArray);
  EXPECT_DOUBLE_EQ(
      root.at("counters").at("hits_detected").number,
      static_cast<double>(report.result.counters.hits_detected));
}

TEST(SearchReport, ToTableRendersAllSections) {
  const auto w = make_workload();
  const auto report = core::CuBlastp(small_config()).search(w.query, w.db);
  const std::string table = report.to_table();
  EXPECT_NE(table.find("hit detection (GPU)"), std::string::npos);
  EXPECT_NE(table.find("gapped extension (CPU)"), std::string::npos);
  EXPECT_NE(table.find("hits detected"), std::string::npos);
  EXPECT_NE(table.find(core::kKernelDetection), std::string::npos);
}

}  // namespace
}  // namespace repro
