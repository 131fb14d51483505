// blastp_cli: a blastp-like command-line tool over the cuBLASTP engine —
// FASTA query(ies) vs FASTA database, ranked hits with alignments.
//
//   ./blastp_cli --query=queries.fasta --db=database.fasta
//                [--evalue=10] [--engine=cublastp|fsa|ncbi]
//                [--strategy=window|diagonal|hit] [--threads=4]
//                [--engine_workers=1] [--shards=1] [--max_alignments=5]
//                [--lenient] [--simtcheck] [--svccheck]
//                [--trace=out.json] [--metrics=out.prom]
//                [--report] [--report-json=out.json]
//
// Batch mode: --batch=queries.fasta (instead of --query) answers every
// query through one core::SearchSession::search_batch — the database is
// uploaded once and the queries run one after another across the
// --shards=K fleet. --report-json then writes ONE cublastp.batch_report.v5
// document instead of an array of per-query reports.
//
// Sharding: --shards=K partitions the database blocks across a modeled
// K-GPU fleet (DESIGN.md §17), whose shards run in order on the calling
// thread. Results are bit-identical at every K; K=1 (the default) is the
// single-engine layout.
//
// All-vs-all mode: --all-vs-all (with --db, no query file) searches every
// database sequence as a query against the whole database through one
// batch; --all-vs-all-limit=N caps it to the first N sequences.
//
// Service mode: --serve --batch=queries.fasta answers the query list
// through a core::SearchService (DESIGN.md §14) — a bounded admission
// queue in front of one resident session — with N concurrent submitter
// threads (--serve-clients, default 2) each submitting the list
// --serve-repeat times. Deadlines and cancellation:
//   --deadline-ms=X            relative deadline for every request
//   --deadline-queries=i:ms,…  per-query-index deadline overrides
//   --cancel-queries=i,j       submit those indices pre-cancelled
//   --queue-capacity=N         admission queue bound (default 16)
//   --per-priority-limit=N     per-class cap (default 0 = none)
// Serve-mode observability (DESIGN.md §16):
//   --slo-ms=X                 latency objective; slower requests burn
//                              service.slo.violations and trigger dumps
//   --flight-dir=DIR           per-query flight recorder; queries that end
//                              degraded/failed/cancelled/expired or past
//                              the SLO dump flight_<seq>_<status>.json
//   --statusz=PATH             periodic live-status JSON rewrite
//   --statusz-period-ms=X      statusz rewrite period (default 500)
//   --log=PATH                 structured JSONL event log (admission,
//                              dispatch, completion, drain, ...)
// Serve mode prints a per-status summary and exits 0 even when requests
// were rejected or expired — backpressure is the service working as
// designed, not a tool failure.
//
// Without --serve, --deadline-ms=X on a plain --query run routes each
// query through a one-off service; a query that misses its deadline (or
// is cancelled) exits 4.
//
// Observability: --trace records one Chrome-trace session spanning every
// query (load in chrome://tracing or Perfetto); --metrics exports the
// process metrics registry (.prom/.txt = Prometheus text, .json = JSON;
// anything else is an error); --profile=out.json writes the continuous
// profiler's cumulative per-phase document (schema cublastp.profile.v1);
// --report prints the per-query phase/counter tables; --report-json writes
// the structured run report(s) (schema cublastp.search_report.v5).
//
// Try it end to end with the synthetic generator:
//   ./database_tools generate --out=db.fasta --seqs=1000 --plant_query_len=517
//   printf '>q\n...' > q.fasta   (or use database_tools + your own FASTA)
//   ./blastp_cli --query=q.fasta --db=db.fasta
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cpu.hpp"
#include "bio/fasta.hpp"
#include "blast/results.hpp"
#include "common.hpp"
#include "core/cublastp.hpp"
#include "core/search_session.hpp"
#include "core/service.hpp"
#include "util/metrics.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace repro;

/// Per-query hazard/degradation warnings; returns true when the analyzer
/// found hazards (the CLI then exits 3, like cuda-memcheck).
bool report_query_health(const std::string& query_id, bool simtcheck,
                         const core::SearchReport& report) {
  if (simtcheck || report.hazards.total != 0)
    std::fprintf(stderr, "%s\n", report.hazards.summary().c_str());
  if (report.degraded())
    std::fprintf(stderr,
                 "blastp_cli: query %s degraded: %llu of %zu blocks fell "
                 "back to the CPU, %llu cache-off retries, %llu injected "
                 "faults absorbed (results stay complete)\n",
                 query_id.c_str(),
                 static_cast<unsigned long long>(report.degraded_blocks),
                 report.retry_counts.size(),
                 static_cast<unsigned long long>(report.cache_off_retries),
                 static_cast<unsigned long long>(report.faults_encountered));
  return report.hazards.total != 0;
}

/// blastp-style output for one query's result.
void print_query_result(const bio::Sequence& query,
                        const bio::SequenceDatabase& db,
                        const blast::SearchResult& result, double elapsed,
                        std::size_t max_alignments) {
  if (result.alignments.empty()) {
    std::printf("***** No hits found *****\n\n");
    return;
  }
  std::printf("Sequences producing significant alignments:  "
              "(bits)  (e-value)\n");
  for (std::size_t i = 0;
       i < std::min<std::size_t>(20, result.alignments.size()); ++i) {
    const auto& a = result.alignments[i];
    std::printf("  %-40s %7.1f   %8.1e\n", db.id(a.seq).c_str(), a.bit_score,
                a.evalue);
  }
  std::printf("\n");
  for (std::size_t i = 0;
       i < std::min(max_alignments, result.alignments.size()); ++i)
    std::printf("%s\n",
                blast::format_alignment(query.residues, db,
                                        result.alignments[i])
                    .c_str());
  std::printf("[%zu hits in %.3f s host wall-clock; %llu hits detected, "
              "%llu ungapped extensions, %llu gapped]\n\n",
              result.alignments.size(), elapsed,
              static_cast<unsigned long long>(result.counters.hits_detected),
              static_cast<unsigned long long>(
                  result.counters.ungapped_extensions),
              static_cast<unsigned long long>(
                  result.counters.gapped_extensions));
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "blastp_cli: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// Parses "i,j,k" into indices (ignores malformed entries).
std::vector<std::size_t> parse_index_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(std::stoul(item));
  return out;
}

/// Parses "i:ms,j:ms" into {index -> deadline_ms}.
std::map<std::size_t, double> parse_deadline_map(const std::string& csv) {
  std::map<std::size_t, double> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos || colon == 0) continue;
    out[std::stoul(item.substr(0, colon))] =
        std::stod(item.substr(colon + 1));
  }
  return out;
}

/// --serve: the query list through a SearchService under concurrent
/// submitters. Prints a per-status summary; rejected/expired requests are
/// the service doing its job, so this never fails the tool.
int run_serve(const util::Options& options, const core::Config& config,
              const std::vector<bio::Sequence>& queries,
              const bio::SequenceDatabase& db) {
  core::ServiceConfig service_config;
  service_config.queue_capacity =
      static_cast<std::size_t>(options.get_int("queue-capacity", 16));
  service_config.per_priority_limit =
      static_cast<std::size_t>(options.get_int("per-priority-limit", 0));
  service_config.slo_ms = options.get_double("slo-ms", 0.0);
  service_config.flight_dir = options.get("flight-dir", "");
  service_config.statusz_path = options.get("statusz", "");
  service_config.statusz_period_ms =
      options.get_double("statusz-period-ms", 500.0);
  service_config.event_log_path = options.get("log", "");
  const auto clients = static_cast<std::size_t>(
      std::max<std::int64_t>(1, options.get_int("serve-clients", 2)));
  const auto repeat = static_cast<std::size_t>(
      std::max<std::int64_t>(1, options.get_int("serve-repeat", 1)));
  const double global_deadline_ms = options.get_double("deadline-ms", 0.0);
  const auto deadline_overrides =
      parse_deadline_map(options.get("deadline-queries", ""));
  const auto cancel_indices =
      parse_index_list(options.get("cancel-queries", ""));

  // Pre-cancelled source for --cancel-queries: those requests resolve
  // kCancelled deterministically (at dequeue, before any work).
  core::CancellationSource cancelled_source;
  cancelled_source.cancel();

  core::SearchService service(config, db, service_config);

  std::mutex agg_mutex;
  std::map<std::string, std::size_t> status_counts;
  double wall_ms_sum = 0.0;
  std::size_t resolved = 0;

  util::Timer serve_timer;
  std::vector<std::thread> submitters;
  submitters.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    submitters.emplace_back([&, c] {
      std::vector<std::future<core::ServiceResult>> futures;
      for (std::size_t r = 0; r < repeat; ++r)
        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
          core::SearchRequest request;
          request.query.assign(queries[qi].residues.begin(),
                               queries[qi].residues.end());
          // Spread priorities so the per-class caps see traffic: client 0
          // is interactive, the rest alternate normal/batch.
          request.priority =
              c == 0 ? core::RequestPriority::kInteractive
                     : (c % 2 != 0 ? core::RequestPriority::kNormal
                                   : core::RequestPriority::kBatch);
          const auto it = deadline_overrides.find(qi);
          request.deadline_ms =
              it != deadline_overrides.end() ? it->second : global_deadline_ms;
          if (std::find(cancel_indices.begin(), cancel_indices.end(), qi) !=
              cancel_indices.end())
            request.cancel = cancelled_source.token();
          futures.push_back(service.submit(std::move(request)));
        }
      for (auto& future : futures) {
        core::ServiceResult result = future.get();
        std::lock_guard<std::mutex> lock(agg_mutex);
        status_counts[core::request_status_name(result.status)] += 1;
        wall_ms_sum += result.wall_ms;
        resolved += 1;
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.drain();
  const double serve_seconds = serve_timer.seconds();

  // Whole-service hazard aggregate: per-request simtcheck/leakcheck/
  // checkpoint findings, the svccheck host-concurrency log, and (the
  // service is idle now) a session leak scan. Like cuda-memcheck, hazards
  // fail the run with exit 3 even when every request resolved.
  const simt::HazardReport hazards = service.hazard_report();
  if (config.simtcheck || config.svccheck || hazards.total != 0)
    std::fprintf(stderr, "%s\n", hazards.summary().c_str());

  const core::ServiceStats stats = service.stats();
  util::Table table({"status", "count"});
  for (const auto& [status, count] : status_counts)
    table.add_row({status, std::to_string(count)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Service: %llu submitted, %llu admitted, %llu rejected; %llu "
      "completed, %llu cancelled, %llu deadline-exceeded, %llu failed; "
      "%llu transient retries; %zu requests in %.3f s (%.1f req/s)\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.transient_retries), resolved,
      serve_seconds,
      serve_seconds > 0.0 ? static_cast<double>(resolved) / serve_seconds
                          : 0.0);
  return hazards.total != 0 ? 3 : 0;
}

/// Every key blastp_cli reads, config_from_options' aside.
const std::vector<std::string_view> kCliKeys = {
    "query", "batch", "all-vs-all", "all-vs-all-limit", "db", "lenient",
    "engine", "max_alignments", "profile", "trace", "metrics", "report",
    "report-json", "deadline-ms", "serve", "serve-clients", "serve-repeat",
    "deadline-queries", "cancel-queries", "queue-capacity",
    "per-priority-limit", "slo-ms", "flight-dir", "statusz",
    "statusz-period-ms", "log"};

int run(int argc, char** argv) {
  util::Options options(argc, argv);
  std::vector<std::string_view> keys = kCliKeys;
  keys.insert(keys.end(), examples::kConfigKeys.begin(),
              examples::kConfigKeys.end());
  if (!examples::known_options_only(options, keys, "blastp_cli")) return 2;
  const bool batch_mode = options.has("batch");
  const bool all_vs_all = options.has("all-vs-all");
  if ((!options.has("query") && !batch_mode && !all_vs_all) ||
      !options.has("db")) {
    std::fprintf(stderr,
                 "usage: blastp_cli (--query=FASTA | --batch=FASTA | "
                 "--all-vs-all [--all-vs-all-limit=N]) "
                 "--db=FASTA "
                 "[--evalue=E] [--engine=cublastp|fsa|ncbi] "
                 "[--strategy=window|diagonal|hit] [--threads=T] "
                 "[--engine_workers=W] [--shards=K] "
                 "[--max_alignments=N] [--lenient] [--simtcheck] "
                 "[--svccheck] "
                 "[--trace=PATH] [--metrics=PATH] [--profile=PATH] "
                 "[--report] [--report-json=PATH]\n"
                 "       blastp_cli --serve --batch=FASTA --db=FASTA "
                 "[--serve-clients=N] [--serve-repeat=N] [--deadline-ms=X] "
                 "[--deadline-queries=i:ms,...] [--cancel-queries=i,...] "
                 "[--queue-capacity=N] [--per-priority-limit=N] "
                 "[--slo-ms=X] [--flight-dir=DIR] [--statusz=PATH] "
                 "[--statusz-period-ms=X] [--log=PATH]\n");
    return 2;
  }

  const bool lenient = options.has("lenient");
  const std::string query_path =
      batch_mode ? options.get("batch", "") : options.get("query", "");
  std::vector<bio::Sequence> queries;
  if (!all_vs_all)
    queries = examples::load_fasta(query_path, lenient, "blastp_cli");
  const auto db = examples::load_database(options.get("db", ""), lenient,
                                          "blastp_cli");
  std::printf("Database: %zu sequences; %llu total letters\n\n", db.size(),
              static_cast<unsigned long long>(db.total_residues()));

  core::Config config = examples::config_from_options(options);
  config.profile_path = options.get("profile", "");
  const std::string engine_name = options.get("engine", "cublastp");
  const auto max_alignments =
      static_cast<std::size_t>(options.get_int("max_alignments", 5));
  if ((batch_mode || all_vs_all) && engine_name != "cublastp") {
    std::fprintf(stderr,
                 "blastp_cli: --batch/--all-vs-all require --engine=cublastp "
                 "(the baseline engines have no batch mode)\n");
    return 2;
  }

  // One Chrome-trace session spanning every query; search() sees it active
  // and joins rather than starting per-query sessions.
  const std::string trace_path = options.get("trace", "");
  std::optional<util::TraceSession> trace_session;
  if (!trace_path.empty()) trace_session.emplace(trace_path);
  const std::string metrics_path = options.get("metrics", "");
  const std::string report_json_path = options.get("report-json", "");
  const bool print_report = options.has("report");
  const double deadline_ms = options.get_double("deadline-ms", 0.0);

  if (options.has("serve")) {
    if (!batch_mode || engine_name != "cublastp") {
      std::fprintf(stderr,
                   "blastp_cli: --serve requires --batch=FASTA and "
                   "--engine=cublastp\n");
      return 2;
    }
    const int rc = run_serve(options, config, queries, db);
    if (!metrics_path.empty() &&
        !util::metrics::Registry::instance().write_file(metrics_path)) {
      std::fprintf(stderr, "blastp_cli: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    return rc;
  }

  bool hazards_found = false;
  bool deadline_missed = false;

  if (batch_mode || all_vs_all) {
    // One session, one batch: each shard's database slice uploads once
    // and every query runs across the --shards=K fleet.
    core::SearchSession session(config, db);
    core::BatchReport batch;
    if (all_vs_all) {
      const auto limit = static_cast<std::size_t>(
          std::max<std::int64_t>(0, options.get_int("all-vs-all-limit", 0)));
      batch = session.search_all_vs_all(limit);
      queries.reserve(batch.reports.size());
      for (std::size_t i = 0; i < batch.reports.size(); ++i)
        queries.push_back(db.sequence(i));
    } else {
      std::vector<std::span<const std::uint8_t>> spans;
      spans.reserve(queries.size());
      for (const auto& query : queries) spans.emplace_back(query.residues);
      batch = session.search_batch(spans);
    }

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto& report = batch.reports[qi];
      std::printf("Query= %s (%zu letters)\n\n", queries[qi].id.c_str(),
                  queries[qi].length());
      hazards_found |=
          report_query_health(queries[qi].id, config.simtcheck || config.svccheck, report);
      if (print_report) std::printf("%s\n", report.to_table().c_str());
      print_query_result(queries[qi], db, report.result,
                         batch.per_query_wall_seconds[qi], max_alignments);
    }
    std::printf(
        "Batch: %zu queries across %zu shard(s) in %.3f s (%.1f queries/s); "
        "database uploaded "
        "once (%llu of %llu bytes; %.0f amortized bytes/query); modeled "
        "pipeline %.2f ms batched vs %.2f ms sequential (%.2fx)\n",
        batch.reports.size(), batch.shards, batch.batch_wall_seconds,
        batch.queries_per_second(),
        static_cast<unsigned long long>(batch.h2d_block_bytes),
        static_cast<unsigned long long>(batch.db_device_bytes),
        batch.amortized_h2d_bytes_per_query(),
        batch.modeled_batch_seconds * 1e3,
        batch.modeled_sequential_seconds * 1e3, batch.modeled_speedup());
    if (!report_json_path.empty() &&
        !write_text_file(report_json_path, batch.to_json() + "\n"))
      return 1;
  } else {
    std::vector<std::string> report_jsons;
    // With a deadline, queries route through a one-off service in front of
    // one resident session, so deadline misses surface as statuses instead
    // of exceptions.
    std::optional<core::SearchService> service;
    if (engine_name == "cublastp" && deadline_ms > 0.0)
      service.emplace(config, db);
    // With --profile or --shards>1 (and no service), queries go through
    // one resident SearchSession so the continuous profiler accumulates
    // across the run and the fleet is built once.
    std::optional<core::SearchSession> session;
    if (engine_name == "cublastp" && !service.has_value() &&
        (!config.profile_path.empty() || config.shards > 1))
      session.emplace(config, db);
    for (const auto& query : queries) {
      std::printf("Query= %s (%zu letters)\n\n", query.id.c_str(),
                  query.length());
      util::Timer timer;
      blast::SearchResult result;
      core::SearchReport report;
      if (engine_name == "fsa") {
        result =
            baselines::fsa_blast_search(query.residues, db, config.params);
      } else if (engine_name == "ncbi") {
        result = baselines::ncbi_mt_search(query.residues, db, config.params,
                                           config.cpu_threads);
      } else {
        if (service.has_value()) {
          core::ServiceResult sres = service->search(
              std::vector<std::uint8_t>(query.residues.begin(),
                                        query.residues.end()),
              deadline_ms);
          if (sres.status != core::RequestStatus::kOk &&
              sres.status != core::RequestStatus::kDegraded) {
            std::fprintf(stderr, "blastp_cli: query %s %s: %s\n",
                         query.id.c_str(),
                         core::request_status_name(sres.status),
                         sres.message.c_str());
            deadline_missed = true;
            continue;
          }
          report = std::move(sres.report);
        } else if (session.has_value()) {
          report = session->search(query.residues);
        } else {
          report = core::CuBlastp(config).search(query.residues, db);
        }
        if (print_report) std::printf("%s\n", report.to_table().c_str());
        if (!report_json_path.empty())
          report_jsons.push_back(report.to_json());
        result = std::move(report.result);
      }
      const double elapsed = timer.seconds();
      if (engine_name == "cublastp")
        hazards_found |=
            report_query_health(query.id, config.simtcheck || config.svccheck, report);
      print_query_result(query, db, result, elapsed, max_alignments);
    }
    if (!report_json_path.empty()) {
      // One object per cublastp query, as a JSON array for stability even
      // with a single query.
      std::string doc = "[";
      for (std::size_t i = 0; i < report_jsons.size(); ++i) {
        if (i) doc += ',';
        doc += report_jsons[i];
      }
      doc += "]\n";
      if (!write_text_file(report_json_path, doc)) return 1;
    }
  }

  if (!metrics_path.empty() &&
      !util::metrics::Registry::instance().write_file(metrics_path)) {
    std::fprintf(stderr, "blastp_cli: cannot write %s\n",
                 metrics_path.c_str());
    return 1;
  }

  // Like cuda-memcheck: correct-looking output still fails the run when
  // the analyzer found hazards. A missed deadline outranks hazards (4).
  if (deadline_missed) return 4;
  return hazards_found ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return examples::run_tool("blastp_cli", [&] { return run(argc, argv); });
}
