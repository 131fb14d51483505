// Service load: open-loop load generator against core::SearchService —
// the admission-control acceptance signal. A closed-loop client slows
// down when the server does, hiding overload; an open-loop generator
// submits on a fixed schedule regardless of completions, which is what a
// fleet of independent clients looks like. Swept across offered loads
// below and above the measured single-stream capacity, the bounded queue
// must convert overload into explicit rejections while the latency of
// *accepted* requests stays bounded by queue_capacity × service time —
// instead of the unbounded queueing delay an unbounded queue would show.
//
//   ./service_load [--swissprot=N] [--seed=S] [--quick]
//                  [--queue-capacity=N] [--requests=N] [--json_out=PATH]
//                  [--shards-only]
//
// Writes bench_results/service_load.json: per offered-load multiple
// (0.5x, 1x, 2x, 4x capacity), offered and achieved qps, accept/reject
// counts, and p50/p99 latency of completed requests.
//
// Also runs a shard-count sweep (K = 1, 2, 4 shards of one SearchSession,
// DESIGN.md §17) and writes bench_results/shard_scaling.json (schema
// cublastp.bench.v1, gated by scripts/check_bench_regression.py): per-K
// alignment counts must be identical, and the modeled fleet batch
// throughput must improve monotonically K=1 -> K=4. `--shards-only` skips
// the offered-load sweep (CI's bench-regression job uses it; --json_out
// then names the shard_scaling output).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/search_session.hpp"
#include "core/service.hpp"
#include "util/timer.hpp"

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Shard-count sweep: the same three-query batch through a K = 1, 2, 4
/// fleet. Deterministic section: per-K alignment counts (exact), the
/// modeled device critical path (the slowest shard's summed kernel
/// milliseconds — pure cost-model output), and the two acceptance flags.
/// Measured section: the fleet pipeline makespans, which fold
/// host-measured CPU stage times and are machine-dependent.
int run_shard_scaling(const repro::util::Options& options,
                      const repro::benchx::BenchSetup& setup,
                      const std::string& out_path) {
  using namespace repro;
  using namespace repro::benchx;

  const auto w = make_workload(setup, 517, /*env_nr=*/false);
  std::vector<std::vector<std::uint8_t>> queries;
  for (const std::size_t len : kQueryLengths)
    queries.push_back(bio::make_benchmark_query(len).residues);
  std::vector<std::span<const std::uint8_t>> spans;
  for (const auto& q : queries) spans.emplace_back(q);

  BenchResult json("shard_scaling", default_cublastp_config(), setup);
  json.set_workload(w);

  util::Table table({"shards", "alignments", "device critical (ms)",
                     "modeled batch (s)", "batch wall (s)"});
  std::vector<std::uint64_t> alignment_counts;
  std::vector<double> device_critical_ms;
  for (const std::size_t k : {1u, 2u, 4u}) {
    auto config = default_cublastp_config();
    config.shards = k;
    core::SearchSession fleet(config, w.db);
    const auto batch = fleet.search_batch(spans);

    std::uint64_t alignments = 0;
    for (const auto& report : batch.reports)
      alignments += report.result.alignments.size();
    alignment_counts.push_back(alignments);

    // Modeled fleet device makespan for the batch: every shard executes
    // its per-query kernel chain back to back; the batch's device-side
    // critical path is the busiest shard's total.
    double critical_ms = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      double shard_ms = 0.0;
      for (const auto& report : batch.reports)
        shard_ms += report.shards[s].kernel_ms;
      if (shard_ms > critical_ms) critical_ms = shard_ms;
    }
    device_critical_ms.push_back(critical_ms);

    const std::string key = "k" + std::to_string(k);
    json.deterministic(key + "_alignments", alignments);
    json.deterministic(key + "_device_critical_ms", critical_ms);
    json.measured(key + "_modeled_batch_s", batch.modeled_batch_seconds);
    json.measured(key + "_batch_wall_s", batch.batch_wall_seconds);
    table.add_row({std::to_string(k), std::to_string(alignments),
                   util::Table::num(critical_ms, 3),
                   util::Table::num(batch.modeled_batch_seconds, 4),
                   util::Table::num(batch.batch_wall_seconds, 4)});
  }

  // Acceptance flags (ISSUE: bit-identical results at every K; modeled
  // fleet throughput improves monotonically K=1 -> K=4). Each shard
  // executes a strict subset of the K=1 kernel chain, so the busiest
  // shard's modeled device time can only shrink as K grows — a structural
  // property of cost-model outputs, safe to gate exactly.
  bool identical = true;
  for (const auto count : alignment_counts)
    if (count != alignment_counts.front()) identical = false;
  bool monotonic = true;
  for (std::size_t i = 1; i < device_critical_ms.size(); ++i)
    if (device_critical_ms[i] >= device_critical_ms[i - 1]) monotonic = false;
  json.deterministic_raw("alignments_identical_across_k",
                         identical ? "true" : "false");
  json.deterministic_raw("modeled_throughput_monotonic",
                         monotonic ? "true" : "false");
  json.measured("device_speedup_k4_over_k1",
                device_critical_ms.back() > 0.0
                    ? device_critical_ms.front() / device_critical_ms.back()
                    : 0.0);

  std::printf("%s", table.render().c_str());
  std::printf("shard scaling: alignments %s across K, modeled device "
              "throughput %s (k4/k1 device-critical speedup %.2fx)\n\n",
              identical ? "identical" : "DIVERGED",
              monotonic ? "monotonically improving" : "NOT monotonic",
              device_critical_ms.front() / device_critical_ms.back());

  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "service_load: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << json.to_json();
  std::printf("wrote %s\n", out_path.c_str());
  return identical && monotonic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  using namespace repro::benchx;

  util::Options options(argc, argv);
  const auto setup = BenchSetup::from_options(options);
  print_banner("service_load",
               "not a paper figure: open-loop offered-load sweep against "
               "the SearchService admission queue (DESIGN.md §14) plus the "
               "SearchSession shard-count sweep (DESIGN.md §17)",
               setup);

  if (options.has("shards-only"))
    return run_shard_scaling(
        options, setup,
        options.get("json_out", "bench_results/shard_scaling.json"));
  const int shard_exit = run_shard_scaling(
      options, setup, "bench_results/shard_scaling.json");

  const auto w = make_workload(setup, 127, /*env_nr=*/false);
  const core::Config config = default_cublastp_config();

  core::ServiceConfig service_config;
  service_config.queue_capacity =
      static_cast<std::size_t>(options.get_int("queue-capacity", 8));
  const auto total_requests = static_cast<std::size_t>(options.get_int(
      "requests", options.has("quick") ? 24 : 48));

  // Calibrate single-stream capacity: mean service time of a few warm
  // searches (the first one additionally pays the database upload, so it
  // is excluded).
  double mean_service_s = 0.0;
  {
    core::SearchSession session(config, w.db);
    (void)session.search(w.query);  // warm-up: upload + first-touch costs
    constexpr int kCalibration = 3;
    util::Timer timer;
    for (int i = 0; i < kCalibration; ++i) (void)session.search(w.query);
    mean_service_s = timer.seconds() / kCalibration;
  }
  const double capacity_qps = 1.0 / mean_service_s;
  std::printf("calibrated: %.1f ms/search -> %.1f qps single-stream "
              "capacity; queue_capacity=%zu, %zu requests per point\n\n",
              mean_service_s * 1e3, capacity_qps,
              service_config.queue_capacity, total_requests);

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n  \"bench\": \"service_load\",\n";
  json << "  \"provenance\": " << provenance_json(config) << ",\n";
  json << "  \"workload\": {\"db\": \"" << w.db_name
       << "\", \"db_seqs\": " << w.db.size() << ", \"query_length\": 127},\n";
  json << "  \"calibration\": {\"service_ms\": " << mean_service_s * 1e3
       << ", \"capacity_qps\": " << capacity_qps << "},\n";
  json << "  \"queue_capacity\": " << service_config.queue_capacity << ",\n";
  json << "  \"requests_per_point\": " << total_requests << ",\n";
  json << "  \"points\": [\n";

  util::Table table({"offered", "offered qps", "achieved qps", "accepted",
                     "rejected", "p50 (ms)", "p99 (ms)", "reject rate"});

  const double multipliers[] = {0.5, 1.0, 2.0, 4.0};
  bool p99_bounded = true;
  // Accepted-latency bound the admission queue guarantees: a request waits
  // behind at most queue_capacity others plus its own service time (with
  // slack for scheduling noise on a loaded machine).
  const double p99_bound_ms =
      static_cast<double>(service_config.queue_capacity + 1) *
      mean_service_s * 1e3 * 3.0;
  bool first_point = true;

  for (const double mult : multipliers) {
    const double offered_qps = mult * capacity_qps;
    const auto interarrival = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / offered_qps));

    core::SearchService service(config, w.db, service_config);
    (void)service.search(w.query);  // pay the upload outside the sweep

    std::vector<std::future<core::ServiceResult>> futures;
    futures.reserve(total_requests);
    util::Timer sweep_timer;
    auto next_arrival = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < total_requests; ++i) {
      std::this_thread::sleep_until(next_arrival);
      next_arrival += interarrival;
      core::SearchRequest request;
      request.query = w.query;
      futures.push_back(service.submit(std::move(request)));
    }

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::vector<double> latencies_ms;
    for (auto& future : futures) {
      const core::ServiceResult result = future.get();
      if (result.status == core::RequestStatus::kRejected) {
        ++rejected;
        continue;
      }
      ++accepted;
      latencies_ms.push_back(result.wall_ms);
    }
    const double sweep_s = sweep_timer.seconds();
    const double achieved_qps =
        sweep_s > 0.0 ? static_cast<double>(accepted) / sweep_s : 0.0;
    const double p50 = percentile(latencies_ms, 0.50);
    const double p99 = percentile(latencies_ms, 0.99);
    const double reject_rate =
        static_cast<double>(rejected) / static_cast<double>(total_requests);
    if (p99 > p99_bound_ms) p99_bounded = false;

    char offered_label[16];
    std::snprintf(offered_label, sizeof offered_label, "%.1fx", mult);
    table.add_row({offered_label, util::Table::num(offered_qps, 1),
                   util::Table::num(achieved_qps, 1),
                   std::to_string(accepted), std::to_string(rejected),
                   util::Table::num(p50, 2), util::Table::num(p99, 2),
                   util::Table::num(reject_rate, 3)});

    if (!first_point) json << ",\n";
    first_point = false;
    json << "    {\"offered_multiple\": " << mult
         << ", \"offered_qps\": " << offered_qps
         << ", \"achieved_qps\": " << achieved_qps
         << ", \"accepted\": " << accepted << ", \"rejected\": " << rejected
         << ", \"p50_ms\": " << p50 << ", \"p99_ms\": " << p99
         << ", \"reject_rate\": " << reject_rate << "}";
  }

  json << "\n  ],\n  \"p99_bound_ms\": " << p99_bound_ms
       << ",\n  \"p99_bounded_under_overload\": "
       << (p99_bounded ? "true" : "false") << "\n}\n";

  std::printf("%s\n", table.render().c_str());
  std::printf("accepted-latency bound (queue_capacity+1 service times, 3x "
              "slack): %.1f ms -> %s\n",
              p99_bound_ms,
              p99_bounded ? "p99 bounded at every offered load"
                          : "p99 EXCEEDED the bound");

  const std::string out_path =
      options.get("json_out", "bench_results/service_load.json");
  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "service_load: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return p99_bounded && shard_exit == 0 ? shard_exit : 1;
}
