// The per-layer run: one query at a time, the layers SearchSession::search
// is made of are called one by one from here, each call under its own span
// (name, start, end, parent, query id) carrying the engine's profile
// difference as its counts. Every composed query is checked against the
// untraced session's answer for the same query: alignments and per-kernel
// warp-op counts must match exactly, or the run fails.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bio/blosum.hpp"
#include "blast/wordlookup.hpp"
#include "core/bins.hpp"
#include "core/errors.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "core/query_context.hpp"
#include "core/search_session.hpp"
#include "runs.hpp"
#include "simt/engine.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

namespace bio = repro::bio;
namespace core = repro::core;
namespace simt = repro::simt;
namespace blast = repro::blast;
using repro::util::Timer;

/// Kernel families, one span per launch_* call. K2's span also covers the
/// bin_scan launch that launch_assemble makes.
constexpr const char* kKernelFamilies[] = {
    "hit_detection", "hit_assemble", "hit_sort", "hit_filter",
    "ungapped_extension"};

double as_count(std::uint64_t v) { return static_cast<double>(v); }

/// What the composition produced for one query.
struct ComposedQuery {
  std::vector<blast::Alignment> alignments;
  simt::ProfileRegistry profile;  ///< engine difference over the query
};

/// The stages of SearchSession::search on an engine and a residency of
/// its own, called in the session's order.
class Composition {
 public:
  Composition(const Workload& workload, const core::Config& config)
      : workload_(&workload),
        config_(config),
        residency_(workload.db, workload.db.split_blocks(config.db_blocks)),
        recorder_(engine_) {
    engine_.set_readonly_cache_enabled(config.use_readonly_cache);
    engine_.set_workers(config.engine_workers);
  }

  /// Uploads every database block, the work the session's warm-up search
  /// does. Recorded under a "setup" root outside any query.
  void upload() {
    const int root = recorder_.open("setup", -1, -1);
    for (std::size_t bi = 0; bi < residency_.num_blocks(); ++bi) {
      const int s = recorder_.open("residency.ensure", root, -1);
      (void)residency_.ensure(engine_, bi);
      recorder_.close(s);
    }
    recorder_.close(root);
  }

  ComposedQuery run(std::span<const std::uint8_t> query, std::int64_t qid);

  [[nodiscard]] const SpanRecorder& recorder() const { return recorder_; }

 private:
  /// K1, relaunched with doubled bin capacity on overflow the way
  /// core::run_block_on_gpu does. Returns the grid that held.
  core::BinGrid detect(const core::QueryContext& ctx,
                       const core::BlockDevice& device,
                       std::uint32_t& bin_capacity, int parent,
                       std::int64_t qid);

  const Workload* workload_;
  core::Config config_;
  simt::Engine engine_;
  core::BlockResidency residency_;
  SpanRecorder recorder_;
};

core::BinGrid Composition::detect(const core::QueryContext& ctx,
                                  const core::BlockDevice& device,
                                  std::uint32_t& bin_capacity, int parent,
                                  std::int64_t qid) {
  for (int retry = 0;; ++retry) {
    core::BinGrid bins(config_.detection_warps(), config_.num_bins_per_warp,
                       bin_capacity);
    const int s = recorder_.open("kernels.hit_detection", parent, qid);
    const core::DetectionResult detection =
        core::launch_hit_detection(engine_, config_, ctx.device, device, bins);
    if (!detection.overflowed) {
      recorder_.close(s, {{"hits", as_count(detection.total_hits)}});
      return bins;
    }
    recorder_.close(s, {{"overflow_retries", 1.0}});
    if (retry >= config_.max_bin_retries ||
        bin_capacity >= config_.max_bin_capacity)
      throw core::SearchError(core::SearchErrorCode::kBinOverflowExhausted,
                              "bin overflow persisted in the traced run");
    bin_capacity = bin_capacity <= config_.max_bin_capacity / 2
                       ? bin_capacity * 2
                       : config_.max_bin_capacity;
  }
}

ComposedQuery Composition::run(std::span<const std::uint8_t> query,
                               std::int64_t qid) {
  SpanRecorder& rec = recorder_;
  const bio::SequenceDatabase& db = workload_->db;
  const simt::ProfileRegistry before = engine_.profile();
  const int root = rec.open("query", -1, qid);

  // QueryContext builds its WordLookup internally; the lookup is built once
  // more on its own, beside it, so the DFS has a time of its own.
  int s = rec.open("wordlookup", root, qid);
  const blast::WordLookup lookup(query, bio::Blosum62::instance(),
                                 config_.params);
  rec.close(s, {{"entries", as_count(lookup.total_entries())}});

  s = rec.open("query_context", root, qid);
  const core::QueryContext ctx(query, db, config_);
  rec.close(s);
  const double prep_s = static_cast<double>(rec.spans()[s].duration_ns()) * 1e-9;

  s = rec.open("transfer.h2d_query", root, qid);
  engine_.transfer("h2d_query", ctx.device.h2d_bytes());
  rec.close(s);

  // GPU half, block by block (SearchSession::run_gpu_phases).
  const std::size_t num_blocks = residency_.num_blocks();
  std::vector<std::vector<blast::UngappedExtension>> extensions(num_blocks);
  std::vector<double> block_gpu_ms(num_blocks);
  auto bin_capacity = static_cast<std::uint32_t>(config_.bin_capacity);
  for (std::size_t bi = 0; bi < num_blocks; ++bi) {
    const int block = rec.open("gpu_block", root, qid);
    const double gpu_ms_before = engine_.profile().total_time_ms();

    s = rec.open("residency.ensure", block, qid);
    const core::BlockDevice& device = residency_.ensure(engine_, bi);
    rec.close(s);

    const core::BinGrid bins = detect(ctx, device, bin_capacity, block, qid);

    s = rec.open("kernels.hit_assemble", block, qid);
    core::AssembledBins assembled = core::launch_assemble(engine_, bins);
    rec.close(s);

    s = rec.open("kernels.hit_sort", block, qid);
    core::launch_sort(engine_, assembled);
    rec.close(s);

    s = rec.open("kernels.hit_filter", block, qid);
    const core::FilteredBins filtered =
        core::launch_filter(engine_, config_, assembled);
    rec.close(s, {{"survivors", as_count(filtered.total_survivors)}});

    s = rec.open("kernels.ungapped_extension", block, qid);
    core::ExtensionResult extension =
        core::launch_extension(engine_, config_, ctx.device, device, filtered);
    rec.close(s, {{"extensions_run", as_count(extension.extensions_run)},
                  {"qualifying", as_count(extension.extensions.size())}});

    s = rec.open("transfer.d2h_extensions", block, qid);
    engine_.transfer("d2h_extensions", extension.records_d2h_bytes);
    rec.close(s);

    for (auto& ext : extension.extensions) ext.seq += device.first_seq;
    extensions[bi] = std::move(extension.extensions);
    block_gpu_ms[bi] = engine_.profile().total_time_ms() - gpu_ms_before;
    rec.close(block);
  }

  // CPU half (SearchSession::run_cpu_phases).
  ComposedQuery out;
  std::vector<core::ModeledBlock> modeled(num_blocks);
  for (std::size_t bi = 0; bi < num_blocks; ++bi) {
    s = rec.open("pipeline.cpu_stage", root, qid);
    core::BlockCpuResult stage =
        core::run_block_cpu_stage(ctx, db, extensions[bi], config_);
    rec.close(s, {{"gapped_ms", stage.gapped_makespan_seconds * 1e3},
                  {"traceback_ms", stage.traceback_makespan_seconds * 1e3},
                  {"gapped_extensions", as_count(stage.gapped_extensions)},
                  {"tracebacks", as_count(stage.tracebacks)}});
    modeled[bi].block_index = bi;
    modeled[bi].gpu_s = block_gpu_ms[bi] / 1e3;
    modeled[bi].cpu_s =
        stage.gapped_makespan_seconds + stage.traceback_makespan_seconds;
    out.alignments.insert(out.alignments.end(),
                          std::make_move_iterator(stage.alignments.begin()),
                          std::make_move_iterator(stage.alignments.end()));
  }

  s = rec.open("pipeline.finalize", root, qid);
  const double finalize_s = core::run_finalize(out.alignments, ctx, config_);
  rec.close(s);

  const core::PipelineTotals totals =
      core::walk_pipeline(modeled, config_.cpu_threads, false);
  rec.close(root,
            {{"overlapped_ms", (totals.overlapped_s + prep_s + finalize_s) * 1e3},
             {"serial_ms", (totals.serial_s + prep_s + finalize_s) * 1e3}});
  out.profile = engine_.profile().diff(before);
  return out;
}

/// Exact per-row warp-op equality of two profiles (absent rows count 0).
bool same_warp_ops(const simt::ProfileRegistry& a,
                   const simt::ProfileRegistry& b) {
  auto ops = [](const simt::ProfileRegistry& r, const std::string& name) {
    return r.has(name) ? r.at(name).vec_ops : 0;
  };
  for (const auto& [name, stats] : a.kernels())
    if (stats.vec_ops != ops(b, name)) return false;
  for (const auto& [name, stats] : b.kernels())
    if (stats.vec_ops != ops(a, name)) return false;
  return true;
}

/// Sums of one span name: host time, counts, and the merged kernel stats.
struct Layer {
  std::uint64_t host_ns = 0;
  simt::KernelStats stats;
  std::map<std::string, double> counts;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_self_times(std::span<const Span> spans) {
  const auto layers = layer_times(spans);
  std::uint64_t all_self = 0;
  for (const auto& [name, layer] : layers) all_self += layer.self_ns;
  std::vector<std::pair<std::string, LayerTime>> rows(layers.begin(),
                                                      layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.self_ns > y.second.self_ns;
  });
  std::printf("\nper-layer self time [host clock], traced run\n");
  std::printf("%-28s %8s %12s %12s %7s\n", "span", "calls", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, layer] : rows)
    std::printf("%-28s %8llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(layer.calls),
                static_cast<double>(layer.total_ns) / 1e6,
                static_cast<double>(layer.self_ns) / 1e6,
                100.0 * ratio(static_cast<double>(layer.self_ns),
                              static_cast<double>(all_self)));
}

}  // namespace

RunResult run_traced(const Workload& workload,
                     const repro::core::Config& input_config, double seconds,
                     const std::string& spans_path) {
  RunResult result;
  const core::Config config = core::normalized_config(input_config);
  double fsa_ms = 0.0;
  const auto references = fsa_references(workload, config, &fsa_ms);

  core::SearchSession session(config, workload.db);
  (void)session.search(workload.queries.front());  // database now resident
  Composition composition(workload, config);
  composition.upload();

  double untraced_s = 0.0, traced_s = 0.0;
  std::int64_t queries = 0;
  double batch_speedup = 0.0, device_busy = 0.0;
  const auto num_queries = static_cast<std::int64_t>(workload.queries.size());
  Timer timed;
  try {
    while (timed.seconds() < seconds || queries < num_queries) {
      const auto q = static_cast<std::size_t>(queries % num_queries);
      const auto& query = workload.queries[q];
      Timer untraced;
      const core::SearchReport report = session.search(query);
      untraced_s += untraced.seconds();
      Timer traced;
      const ComposedQuery composed = composition.run(query, queries);
      traced_s += traced.seconds();

      QueryOutcome outcome;
      outcome.degraded = report.degraded();
      const bool same_as_session =
          composed.alignments == report.result.alignments;
      const bool same_ops = same_warp_ops(composed.profile, report.profile);
      const bool same_as_fsa = composed.alignments == references[q];
      outcome.mismatched = !same_as_session || !same_ops || !same_as_fsa;
      if (outcome.mismatched)
        std::fprintf(stderr,
                     "perfbench: traced query %lld differs: alignments vs "
                     "session %s, warp ops vs session %s, vs FSA-BLAST %s\n",
                     static_cast<long long>(queries),
                     same_as_session ? "same" : "DIFFER",
                     same_ops ? "same" : "DIFFER",
                     same_as_fsa ? "same" : "DIFFER");
      result.failures.add(outcome);
      ++queries;
    }

    // The session's cross-query overlap, over one batch of the queries.
    std::vector<std::span<const std::uint8_t>> batch(workload.queries.begin(),
                                                     workload.queries.end());
    const core::BatchReport report = session.search_batch(batch);
    double device_and_transfer_ms = 0.0;
    for (std::size_t i = 0; i < report.reports.size(); ++i) {
      const core::SearchReport& r = report.reports[i];
      device_and_transfer_ms += r.gpu_critical_ms() + r.h2d_ms + r.d2h_ms;
      QueryOutcome outcome;
      outcome.degraded = r.degraded();
      outcome.mismatched = r.result.alignments != references[i];
      result.failures.add(outcome);
    }
    batch_speedup = report.modeled_speedup();
    device_busy =
        ratio(device_and_transfer_ms, report.modeled_batch_seconds * 1e3);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: traced run threw: %s\n", e.what());
    QueryOutcome threw;
    threw.threw = true;
    result.failures.add(threw);
  }

  const std::vector<Span>& spans = composition.recorder().spans();
  if (!spans_path.empty() &&
      !composition.recorder().write_chrome_trace(spans_path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  print_self_times(spans);

  // Sums per span name. Transfers are summed over leaf spans only, since a
  // parent's profile difference already holds its children's.
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& span : spans)
    if (span.parent >= 0) has_child[static_cast<std::size_t>(span.parent)] = true;
  std::map<std::string, Layer> layers;
  double h2d_ms = 0.0, h2d_bytes = 0.0, d2h_ms = 0.0, d2h_bytes = 0.0;
  double block_ms = 0.0, block_bytes = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    Layer& layer = layers[span.name];
    layer.host_ns += span.duration_ns();
    for (const auto& [key, value] : span.counts) layer.counts[key] += value;
    for (const auto& [row, stats] : span.kernels.kernels()) {
      layer.stats.merge(stats);
      if (has_child[i]) continue;
      const auto bytes = static_cast<double>(stats.st_bytes_requested);
      if (span.query < 0 && row.starts_with("h2d_")) {
        block_ms += stats.time_ms;
        block_bytes += bytes;
      } else if (row.starts_with("h2d_")) {
        h2d_ms += stats.time_ms;
        h2d_bytes += bytes;
      } else if (row.starts_with("d2h_")) {
        d2h_ms += stats.time_ms;
        d2h_bytes += bytes;
      }
    }
  }

  const double n = static_cast<double>(std::max<std::int64_t>(queries, 1));
  auto host_ms = [&](const std::string& name) {
    return static_cast<double>(layers[name].host_ns) / 1e6 / n;
  };
  auto& m = result.metrics;
  m.push_back({"query_context.host_ms", host_ms("query_context"), "ms", "host",
               "QueryContext construction per query"});
  m.push_back({"wordlookup.host_ms", host_ms("wordlookup"), "ms", "host",
               "neighbour-word DFS per query, built beside QueryContext"});
  m.push_back({"wordlookup.entries", layers["wordlookup"].counts["entries"] / n,
               "count", "count", "lookup entries per query"});
  m.push_back({"transfer.h2d_ms", h2d_ms / n, "ms", "device",
               "H2D per query, database resident"});
  m.push_back({"transfer.h2d_bytes", h2d_bytes / n, "B", "count",
               "H2D bytes per query"});
  m.push_back({"transfer.d2h_ms", d2h_ms / n, "ms", "device", "D2H per query"});
  m.push_back({"transfer.d2h_bytes", d2h_bytes / n, "B", "count",
               "D2H bytes per query"});
  m.push_back({"transfer.h2d_block_ms", block_ms, "ms", "device",
               "one-time database upload"});
  m.push_back({"transfer.h2d_block_bytes", block_bytes, "B", "count",
               "one-time database upload"});
  for (const char* family : kKernelFamilies) {
    const std::string k = std::string("kernels.") + family;
    const Layer& layer = layers[k];
    const simt::KernelStats& st = layer.stats;
    const auto ops = static_cast<double>(st.vec_ops);
    m.push_back({k + ".modeled_ms", st.time_ms / n, "ms", "device",
                 "per query"});
    m.push_back({k + ".warp_ops", ops / n, "count", "count", "per query"});
    m.push_back({k + ".load_efficiency", st.global_load_efficiency(), "frac",
                 "device", "requested / fetched sector bytes"});
    m.push_back({k + ".divergence", st.divergence_overhead(), "frac",
                 "device", "issue slots lost to inactive lanes"});
    m.push_back({k + ".occupancy", st.occupancy, "frac", "device",
                 "block-weighted"});
    m.push_back({k + ".host_ms", host_ms(k), "ms", "host",
                 "simulator time per query"});
    m.push_back({k + ".host_ns_per_op",
                 ratio(static_cast<double>(layer.host_ns), ops), "ns/op",
                 "host", "simulator ns per warp op"});
  }
  Layer& detection = layers["kernels.hit_detection"];
  m.push_back({"kernels.hit_detection.rocache_hit_ratio",
               detection.stats.rocache_hit_ratio(), "frac", "device",
               "read-only cache hits / accesses"});
  m.push_back({"kernels.hit_detection.overflow_retries",
               detection.counts["overflow_retries"] / n, "count", "count",
               "wasted K1 launches per query"});
  m.push_back({"kernels.filter_survival",
               ratio(layers["kernels.hit_filter"].counts["survivors"],
                     detection.counts["hits"]),
               "frac", "count", "two-hit survivors / hits"});
  Layer& extension = layers["kernels.ungapped_extension"];
  m.push_back({"kernels.extension_yield",
               ratio(extension.counts["qualifying"],
                     extension.counts["extensions_run"]),
               "frac", "count", "qualifying / extensions run"});
  Layer& cpu = layers["pipeline.cpu_stage"];
  m.push_back({"pipeline.cpu_stage.host_ms", host_ms("pipeline.cpu_stage"),
               "ms", "host", "gapped + traceback per query"});
  m.push_back({"pipeline.gapped_ms", cpu.counts["gapped_ms"] / n, "ms",
               "modeled", "4-thread makespan per query"});
  m.push_back({"pipeline.traceback_ms", cpu.counts["traceback_ms"] / n, "ms",
               "modeled", "4-thread makespan per query"});
  m.push_back({"pipeline.traceback_yield",
               ratio(cpu.counts["tracebacks"], cpu.counts["gapped_extensions"]),
               "frac", "count", "tracebacks / gapped extensions"});
  m.push_back({"pipeline.finalize.host_ms", host_ms("pipeline.finalize"), "ms",
               "host", "per query"});
  Layer& query_layer = layers["query"];
  m.push_back({"pipeline.overlap_hidden",
               1.0 - ratio(query_layer.counts["overlapped_ms"],
                           query_layer.counts["serial_ms"]),
               "frac", "modeled", "1 - overlapped / serial"});
  m.push_back({"session.batch_speedup", batch_speedup, "x", "modeled",
               "modeled sequential / batch makespan"});
  m.push_back({"session.device_busy", device_busy, "frac", "modeled",
               "device + transfer ms / modeled batch ms"});
  m.push_back({"baselines.fsa.host_ms", fsa_ms, "ms", "host",
               "reference search per query"});
  m.push_back({"trace.overhead", ratio(traced_s, untraced_s) - 1.0, "frac",
               "host",
               "traced / untraced host time - 1, " +
                   std::to_string(queries) + " paired queries"});
  return result;
}

}  // namespace perfbench
