// The end-to-end run: tracing off, the production SearchSession driven the
// way a caller would, every number taken from what the session returns or
// from the host clock around its calls.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <memory>

#include "baselines/cpu.hpp"
#include "core/search_session.hpp"
#include "runs.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using repro::core::SearchReport;
using repro::core::SearchSession;
using repro::util::Timer;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Samples a run takes however long they take: every query of small_db
/// repeats at least five times, and the printed tail is at least p75, so on
/// env_mix it lands among the 1054-residue queries (the top third).
constexpr std::size_t kMinSamples = 4 * kTailBeyond;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

QueryOutcome check(const SearchReport& report,
                   const std::vector<repro::blast::Alignment>& reference) {
  QueryOutcome outcome;
  outcome.degraded = report.degraded();
  outcome.mismatched = report.result.alignments != reference;
  return outcome;
}

std::string sample_note(const char* what, std::size_t n) {
  return std::string(what) + ", n=" + std::to_string(n);
}

std::string tail_note(const Tail& tail, std::size_t n) {
  char note[64];
  std::snprintf(note, sizeof(note), "p%d, %zu of n=%zu beyond",
                tail.percentile, tail.beyond, n);
  return note;
}

}  // namespace

std::vector<std::vector<repro::blast::Alignment>> fsa_references(
    const Workload& workload, const repro::core::Config& config,
    double* host_ms) {
  std::vector<std::vector<repro::blast::Alignment>> references;
  std::size_t alignments = 0;
  Timer timer;
  for (const auto& query : workload.queries) {
    references.push_back(
        repro::baselines::fsa_blast_search(query, workload.db, config.params)
            .alignments);
    alignments += references.back().size();
  }
  const auto queries = static_cast<double>(workload.queries.size());
  if (host_ms != nullptr) *host_ms = timer.milliseconds() / queries;
  std::printf("FSA-BLAST reference: %.1f alignments per query\n",
              static_cast<double>(alignments) / queries);
  return references;
}

RunResult run_untraced(const Workload& workload,
                       const repro::core::Config& config, double seconds) {
  RunResult result;
  const auto references = fsa_references(workload, config);

  // Set-up: session construction plus the warm-up search that makes the
  // database device-resident.
  std::vector<double> setup_s;
  std::unique_ptr<SearchSession> session;
  for (int r = 0; r < kSetupRepeats; ++r) {
    session.reset();
    Timer timer;
    session = std::make_unique<SearchSession>(config, workload.db);
    (void)session->search(workload.queries.front());
    setup_s.push_back(timer.seconds());
  }

  // Closed loop, one caller: the next query goes out when the last returns.
  std::vector<double> query_ms, device_ms, host_query_s;
  double modeled_s = 0.0;  // modeled seconds to serve the completed queries
  Timer timed;
  try {
    for (std::size_t next = 0;
         timed.seconds() < seconds || host_query_s.size() < kMinSamples;) {
      const std::size_t q = next++ % workload.queries.size();
      Timer timer;
      const SearchReport r = session->search(workload.queries[q]);
      host_query_s.push_back(timer.seconds());
      query_ms.push_back(r.overlapped_total_seconds * 1e3);
      device_ms.push_back(r.gpu_critical_ms());
      modeled_s += r.overlapped_total_seconds;
      result.failures.add(check(r, references[q]));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: search threw: %s\n", e.what());
    QueryOutcome threw;
    threw.threw = true;
    result.failures.add(threw);
  }
  const double timed_s = timed.seconds();
  const double rss_mb = peak_rss_mb();

  // Only device time and memory are gated. Host time on a shared host moves
  // with the load from other tenants: over ten seeds the spread of the
  // per-query host median reached 0.28, and that of query_ms, whose CPU
  // stages the library times with the wall clock, 0.36. Both are printed,
  // not gated.
  const std::size_t n = host_query_s.size();
  const auto completed = static_cast<double>(n);
  const Tail query_tail = tail_percentile(query_ms);
  const Tail host_tail = tail_percentile(host_query_s);
  result.metrics = {
      {"device_ms", median(device_ms), "ms", "device",
       sample_note("median GPU critical path per query", n)},
      {"setup_s", median(setup_s), "s", "host",
       "median of " + std::to_string(kSetupRepeats) +
           " session constructions + warm-up search"},
      {"peak_rss_mb", rss_mb, "MB", "host", "getrusage ru_maxrss"},
      {"query_ms", median(query_ms), "ms", "modeled",
       sample_note("median Fig. 12 overlapped makespan per query", n), false},
      {"query_ms_tail", query_tail.value, "ms", "modeled",
       tail_note(query_tail, n), false},
      {"modeled_qps", modeled_s > 0.0 ? completed / modeled_s : 0.0, "1/s",
       "modeled", "queries / summed per-query makespans", false},
      {"host_query_s", median(host_query_s), "s", "host",
       sample_note("median wall per search call", n), false},
      {"host_query_s_tail", host_tail.value, "s", "host",
       tail_note(host_tail, n), false},
      {"host_qps", completed / timed_s, "1/s", "host",
       sample_note("queries per timed second", n), false},
  };
  return result;
}

}  // namespace perfbench
