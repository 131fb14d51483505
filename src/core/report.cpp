// SearchReport serialization: the machine-readable JSON run report
// (schema "cublastp.search_report.v5") and the human-readable --report
// tables. Everything CI and the bench scripts previously scraped from
// stdout lives here in one stable schema. v2 added a pre-filter section
// (mode, threshold, pass rate, per-block backend choices) and the filter
// and fused-coarse-kernel rows in "gpu_ms"; v3 added the top-level
// "wall_ms" and terminal "status" fields (ok | degraded | cancelled |
// deadline_exceeded | rejected) so service-layer consumers can read the
// request's fate without parsing counters; v4 added the per-shard "shards"
// section (engine-shard fleet observability; DESIGN.md §17) and the batch
// report's top-level "shards" fleet size; v5 removes what v2 added, with
// the pre-filter itself (DESIGN.md §13): both reports' pre-filter
// sections, the two "gpu_ms" rows, and each shard's per-block backend
// list and filter-degraded count. A "degradation.retry_counts" entry of 2
// says both GPU rungs failed and the CPU fallback served the block.
#include <algorithm>
#include <cstdint>
#include <string>

#include "core/cublastp.hpp"
#include "core/search_session.hpp"
#include "simt/simtcheck.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace repro::core {

namespace {

using util::json_num;
using util::json_str;

void append_kv(std::string& out, const char* key, double value,
               bool trailing_comma = true) {
  out += json_str(key);
  out += ':';
  out += json_num(value);
  if (trailing_comma) out += ',';
}

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool trailing_comma = true) {
  out += json_str(key);
  out += ':';
  out += json_num(value);
  if (trailing_comma) out += ',';
}

}  // namespace

std::string SearchReport::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"cublastp.search_report.v5\",";

  // Terminal status + host wall clock (v3).
  out += json_str("status");
  out += ':';
  out += json_str(status);
  out += ',';
  append_kv(out, "wall_ms", wall_ms);

  // Modeled GPU phase times (Fig. 14 / Fig. 19 inputs).
  out += "\"gpu_ms\":{";
  append_kv(out, "hit_detection", detection_ms);
  append_kv(out, "bin_scan", scan_ms);
  append_kv(out, "hit_sort", sort_ms);
  append_kv(out, "hit_filter", filter_ms);
  append_kv(out, "ungapped_extension", extension_ms);
  append_kv(out, "h2d", h2d_ms);
  append_kv(out, "d2h", d2h_ms);
  append_kv(out, "gpu_critical", gpu_critical_ms());
  append_kv(out, "sorting_group", sorting_group_ms(), false);
  out += "},";

  // CPU-side and pipeline seconds.
  out += "\"cpu_seconds\":{";
  append_kv(out, "gapped", gapped_seconds);
  append_kv(out, "traceback", traceback_seconds);
  append_kv(out, "other", other_seconds, false);
  out += "},";
  out += "\"pipeline_seconds\":{";
  append_kv(out, "overlapped", overlapped_total_seconds);
  append_kv(out, "serial", serial_total_seconds, false);
  out += "},";

  // Phase timings as reported to callers (PhaseTimings mapping).
  out += "\"timings_seconds\":{";
  append_kv(out, "hit_detection", result.timings.hit_detection);
  append_kv(out, "ungapped_extension", result.timings.ungapped_extension);
  append_kv(out, "gapped_extension", result.timings.gapped_extension);
  append_kv(out, "traceback", result.timings.traceback);
  append_kv(out, "other", result.timings.other);
  append_kv(out, "total", result.timings.total(), false);
  out += "},";

  // Work counters.
  out += "\"counters\":{";
  append_kv(out, "words_scanned", result.counters.words_scanned);
  append_kv(out, "hits_detected", result.counters.hits_detected);
  append_kv(out, "hits_after_filter", result.counters.hits_after_filter);
  append_kv(out, "ungapped_extensions", result.counters.ungapped_extensions);
  append_kv(out, "gapped_extensions", result.counters.gapped_extensions);
  append_kv(out, "tracebacks", result.counters.tracebacks);
  append_kv(out, "dp_cells", result.counters.dp_cells);
  append_kv(out, "filter_survival_ratio",
            result.counters.filter_survival_ratio(), false);
  out += "},";

  // Degradation ladder (DESIGN.md §9).
  out += "\"degradation\":{";
  append_kv(out, "degraded", static_cast<std::uint64_t>(degraded() ? 1 : 0));
  append_kv(out, "degraded_blocks", degraded_blocks);
  append_kv(out, "cache_off_retries", cache_off_retries);
  append_kv(out, "bin_overflow_retries", bin_overflow_retries);
  append_kv(out, "faults_encountered", faults_encountered);
  out += "\"retry_counts\":[";
  for (std::size_t i = 0; i < retry_counts.size(); ++i) {
    if (i) out += ',';
    out += json_num(static_cast<std::uint64_t>(retry_counts[i]));
  }
  out += "]},";

  // Scatter–gather fleet (v4; DESIGN.md §17): one entry per engine shard
  // in shard (= global block) order. Single-engine searches carry exactly
  // one entry covering every block, so the shape is K-independent.
  out += "\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardSummary& s = shards[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "shard", static_cast<std::uint64_t>(s.shard));
    append_kv(out, "first_block", static_cast<std::uint64_t>(s.first_block));
    append_kv(out, "num_blocks", static_cast<std::uint64_t>(s.num_blocks));
    append_kv(out, "retry_attempts", s.retry_attempts);
    append_kv(out, "degraded_blocks", s.degraded_blocks);
    append_kv(out, "cache_off_retries", s.cache_off_retries);
    append_kv(out, "bin_overflow_retries", s.bin_overflow_retries);
    append_kv(out, "kernel_ms", s.kernel_ms, false);
    out += '}';
  }
  out += "],";

  // simtcheck hazards.
  out += "\"hazards\":{";
  append_kv(out, "total", hazards.total);
  append_kv(out, "collectives_checked", hazards.collectives_checked);
  out += "\"by_kind\":{";
  bool first = true;
  for (int k = 0; k < simt::kNumHazardKinds; ++k) {
    if (hazards.by_kind[static_cast<std::size_t>(k)] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += json_str(
        simt::hazard_kind_name(static_cast<simt::HazardKind>(k)));
    out += ':';
    out += json_num(hazards.by_kind[static_cast<std::size_t>(k)]);
  }
  out += "}},";

  // Per-kernel profile (every KernelStats counter the engine measured).
  out += "\"profile\":{";
  first = true;
  for (const auto& [name, k] : profile.kernels()) {
    if (!first) out += ',';
    first = false;
    out += json_str(name);
    out += ":{";
    append_kv(out, "launches_blocks", k.num_blocks);
    append_kv(out, "vec_ops", k.vec_ops);
    append_kv(out, "ld_requests", k.ld_requests);
    append_kv(out, "ld_bytes_requested", k.ld_bytes_requested);
    append_kv(out, "ld_transactions", k.ld_transactions);
    append_kv(out, "st_requests", k.st_requests);
    append_kv(out, "st_bytes_requested", k.st_bytes_requested);
    append_kv(out, "st_transactions", k.st_transactions);
    append_kv(out, "rocache_hits", k.rocache_hits);
    append_kv(out, "rocache_misses", k.rocache_misses);
    append_kv(out, "shared_ops", k.shared_ops);
    append_kv(out, "atomic_ops", k.atomic_ops);
    append_kv(out, "simtcheck_hazards", k.simtcheck_hazards);
    append_kv(out, "shared_bytes",
              static_cast<std::uint64_t>(k.shared_bytes));
    append_kv(out, "occupancy", k.occupancy);
    append_kv(out, "divergence_overhead", k.divergence_overhead());
    append_kv(out, "global_load_efficiency", k.global_load_efficiency());
    append_kv(out, "rocache_hit_ratio", k.rocache_hit_ratio());
    append_kv(out, "time_ms", k.time_ms, false);
    out += '}';
  }
  out += "},";

  // Result summary (alignments themselves stay in SearchResult; the report
  // carries the ranked top hits so CI can sanity-check without re-running).
  out += "\"alignments\":{";
  append_kv(out, "count",
            static_cast<std::uint64_t>(result.alignments.size()));
  out += "\"top\":[";
  const std::size_t top_n = std::min<std::size_t>(result.alignments.size(), 5);
  for (std::size_t i = 0; i < top_n; ++i) {
    const auto& a = result.alignments[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "seq", static_cast<std::uint64_t>(a.seq));
    append_kv(out, "score", static_cast<std::uint64_t>(a.score));
    append_kv(out, "bit_score", a.bit_score);
    append_kv(out, "evalue", a.evalue);
    append_kv(out, "length",
              static_cast<std::uint64_t>(a.alignment_length()), false);
    out += '}';
  }
  out += "]}}";
  return out;
}

std::string BatchReport::to_json() const {
  std::string out;
  out.reserve(4096 * (reports.size() + 1));
  out += "{\"schema\":\"cublastp.batch_report.v5\",";
  append_kv(out, "queries", static_cast<std::uint64_t>(reports.size()));
  append_kv(out, "shards", static_cast<std::uint64_t>(shards));
  append_kv(out, "batch_wall_seconds", batch_wall_seconds);
  append_kv(out, "queries_per_second", queries_per_second());

  out += "\"modeled\":{";
  append_kv(out, "batch_seconds", modeled_batch_seconds);
  append_kv(out, "sequential_seconds", modeled_sequential_seconds);
  append_kv(out, "speedup", modeled_speedup(), false);
  out += "},";

  out += "\"h2d\":{";
  append_kv(out, "block_bytes_uploaded", h2d_block_bytes);
  append_kv(out, "block_uploads", h2d_block_uploads);
  append_kv(out, "db_device_bytes", db_device_bytes);
  append_kv(out, "amortized_bytes_per_query", amortized_h2d_bytes_per_query(),
            false);
  out += "},";

  out += "\"per_query_wall_seconds\":[";
  for (std::size_t i = 0; i < per_query_wall_seconds.size(); ++i) {
    if (i) out += ',';
    out += json_num(per_query_wall_seconds[i]);
  }
  out += "],";

  // Per-query terminal statuses (v3) — mirrors reports[i].status so batch
  // consumers can scan outcomes without descending into each document.
  out += "\"statuses\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i) out += ',';
    out += json_str(reports[i].status);
  }
  out += "],";

  // Full per-query documents, reusing the search_report.v5 schema so every
  // existing consumer of --report-json keeps working per query.
  out += "\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i) out += ',';
    out += reports[i].to_json();
  }
  out += "]}";
  return out;
}

std::string SearchReport::to_table() const {
  std::string out;

  util::Table phases({"phase", "time", "unit"});
  phases.add_row({"hit detection (GPU)", util::Table::num(detection_ms, 3),
                  "ms"});
  phases.add_row({"bin scan (GPU)", util::Table::num(scan_ms, 3), "ms"});
  phases.add_row({"hit sort (GPU)", util::Table::num(sort_ms, 3), "ms"});
  phases.add_row({"hit filter (GPU)", util::Table::num(filter_ms, 3), "ms"});
  phases.add_row({"ungapped extension (GPU)",
                  util::Table::num(extension_ms, 3), "ms"});
  phases.add_row({"H2D / D2H", util::Table::num(h2d_ms + d2h_ms, 3), "ms"});
  phases.add_row({"gapped extension (CPU)",
                  util::Table::num(gapped_seconds, 4), "s"});
  phases.add_row({"traceback (CPU)", util::Table::num(traceback_seconds, 4),
                  "s"});
  phases.add_row({"other (CPU)", util::Table::num(other_seconds, 4), "s"});
  phases.add_row({"total (overlapped)",
                  util::Table::num(overlapped_total_seconds, 4), "s"});
  phases.add_row({"total (serial)",
                  util::Table::num(serial_total_seconds, 4), "s"});
  out += phases.render();
  out += '\n';

  util::Table counters({"counter", "value"});
  counters.add_row({"words scanned",
                    std::to_string(result.counters.words_scanned)});
  counters.add_row({"hits detected",
                    std::to_string(result.counters.hits_detected)});
  counters.add_row({"hits after filter",
                    std::to_string(result.counters.hits_after_filter)});
  counters.add_row({"ungapped extensions",
                    std::to_string(result.counters.ungapped_extensions)});
  counters.add_row({"gapped extensions",
                    std::to_string(result.counters.gapped_extensions)});
  counters.add_row({"tracebacks",
                    std::to_string(result.counters.tracebacks)});
  counters.add_row({"gapped DP cells",
                    std::to_string(result.counters.dp_cells)});
  counters.add_row({"alignments",
                    std::to_string(result.alignments.size())});
  counters.add_row({"filter survival",
                    util::Table::num(
                        result.counters.filter_survival_ratio() * 100.0, 1) +
                        " %"});
  out += counters.render();

  if (degraded() || bin_overflow_retries != 0 || faults_encountered != 0) {
    out += '\n';
    util::Table degrade({"degradation", "value"});
    degrade.add_row({"degraded blocks", std::to_string(degraded_blocks)});
    degrade.add_row({"cache-off retries",
                     std::to_string(cache_off_retries)});
    degrade.add_row({"bin overflow retries",
                     std::to_string(bin_overflow_retries)});
    degrade.add_row({"faults absorbed",
                     std::to_string(faults_encountered)});
    out += degrade.render();
  }

  out += '\n';
  util::Table prof({"kernel", "time(ms)", "occupancy", "divergence",
                    "gld_eff", "rocache"});
  for (const auto& [name, k] : profile.kernels()) {
    prof.add_row({name, util::Table::num(k.time_ms, 3),
                  util::Table::num(k.occupancy, 2),
                  util::Table::num(k.divergence_overhead(), 2),
                  util::Table::num(k.global_load_efficiency(), 2),
                  util::Table::num(k.rocache_hit_ratio(), 2)});
  }
  out += prof.render();
  return out;
}

}  // namespace repro::core
