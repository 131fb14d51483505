#include "baselines/cpu.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/results.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "util/makespan.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace repro::baselines {

namespace {

struct PreparedQuery {
  blast::WordLookup lookup;
  bio::Pssm pssm;
  bio::EvalueCalculator evalue;
  double build_seconds;
};

PreparedQuery prepare(std::span<const std::uint8_t> query,
                      const bio::SequenceDatabase& db,
                      const blast::SearchParams& params) {
  util::Timer timer;
  blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
  bio::Pssm pssm(query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), query.size(),
                               db.total_residues(), db.size());
  const double secs = timer.seconds();
  return PreparedQuery{std::move(lookup), std::move(pssm), std::move(evalue),
                       secs};
}

}  // namespace

blast::SearchResult fsa_blast_search(std::span<const std::uint8_t> query,
                                     const bio::SequenceDatabase& db,
                                     const blast::SearchParams& params) {
  blast::SearchResult result;
  PreparedQuery prepared = prepare(query, db, params);
  result.timings.other += prepared.build_seconds;

  // Critical phases: interleaved hit detection + ungapped extension.
  std::vector<blast::UngappedExtension> extensions;
  {
    util::ScopedAccumulator critical(result.timings.hit_detection);
    blast::TwoHitTracker tracker(query.size() + db.max_length() + 2);
    for (std::size_t i = 0; i < db.size(); ++i) {
      const auto counters = blast::run_ungapped_phase(
          prepared.lookup, prepared.pssm, db.residues(i),
          static_cast<std::uint32_t>(i), params, tracker, extensions);
      result.counters.words_scanned += counters.words_scanned;
      result.counters.hits_detected += counters.hits;
      result.counters.hits_after_filter += counters.extensions_run;
      result.counters.ungapped_extensions += counters.extensions_run;
    }
  }

  // Gapped extension + alignment with traceback.
  auto stage = blast::process_gapped_stage(prepared.pssm, db, extensions,
                                           params, prepared.evalue);
  result.timings.gapped_extension = stage.gapped_seconds;
  result.timings.traceback = stage.traceback_seconds;
  result.counters.gapped_extensions = stage.gapped_extensions;
  result.counters.tracebacks = stage.tracebacks;
  result.counters.dp_cells = stage.dp_cells;

  {
    util::ScopedAccumulator finalize_time(result.timings.other);
    result.alignments = std::move(stage.alignments);
    blast::finalize_results(result.alignments, params, prepared.evalue);
  }
  return result;
}

blast::SearchResult ncbi_mt_search(std::span<const std::uint8_t> query,
                                   const bio::SequenceDatabase& db,
                                   const blast::SearchParams& params,
                                   std::size_t threads) {
  if (threads == 0) threads = 1;
  blast::SearchResult result;
  PreparedQuery prepared = prepare(query, db, params);
  result.timings.other += prepared.build_seconds;

  // Shard the database into chunks dispatched dynamically, the way NCBI
  // BLAST+ hands batches of subject sequences to its worker threads.
  const std::size_t num_chunks = std::max<std::size_t>(threads * 8, 1);
  const auto chunks = db.split_blocks(num_chunks);

  struct ChunkOutput {
    std::vector<blast::UngappedExtension> extensions;
    blast::SearchCounters counters;
    double critical_seconds = 0.0;
  };
  std::vector<ChunkOutput> outputs(chunks.size());

  util::ThreadPool pool(threads);
  pool.parallel_for_dynamic(chunks.size(), [&](std::size_t c) {
    ChunkOutput& out = outputs[c];
    // CPU time, not wall time: with more workers than cores, wall-clock
    // would charge each chunk for its neighbours' time slices.
    util::ThreadCpuTimer timer;
    blast::TwoHitTracker tracker(query.size() + db.max_length() + 2);
    for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      const auto counters = blast::run_ungapped_phase(
          prepared.lookup, prepared.pssm, db.residues(i),
          static_cast<std::uint32_t>(i), params, tracker, out.extensions);
      out.counters.words_scanned += counters.words_scanned;
      out.counters.hits_detected += counters.hits;
      out.counters.hits_after_filter += counters.extensions_run;
      out.counters.ungapped_extensions += counters.extensions_run;
    }
    out.critical_seconds = timer.seconds();
  });

  std::vector<blast::UngappedExtension> extensions;
  std::vector<double> chunk_costs;
  chunk_costs.reserve(outputs.size());
  for (auto& out : outputs) {
    extensions.insert(extensions.end(), out.extensions.begin(),
                      out.extensions.end());
    result.counters.words_scanned += out.counters.words_scanned;
    result.counters.hits_detected += out.counters.hits_detected;
    result.counters.hits_after_filter += out.counters.hits_after_filter;
    result.counters.ungapped_extensions += out.counters.ungapped_extensions;
    chunk_costs.push_back(out.critical_seconds);
  }
  // Phase time = T-worker makespan of the measured chunk costs.
  result.timings.hit_detection =
      util::list_schedule_makespan(chunk_costs, threads);

  auto stage = blast::process_gapped_stage(prepared.pssm, db, extensions,
                                           params, prepared.evalue);
  result.timings.gapped_extension =
      util::list_schedule_makespan(stage.gapped_task_costs, threads);
  result.timings.traceback =
      util::list_schedule_makespan(stage.traceback_task_costs, threads);
  result.counters.gapped_extensions = stage.gapped_extensions;
  result.counters.tracebacks = stage.tracebacks;
  result.counters.dp_cells = stage.dp_cells;

  {
    util::ScopedAccumulator finalize_time(result.timings.other);
    result.alignments = std::move(stage.alignments);
    blast::finalize_results(result.alignments, params, prepared.evalue);
  }
  return result;
}

}  // namespace repro::baselines
