#include "baselines/coarse_gpu.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "baselines/coarse_block.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/results.hpp"
#include "blast/wordlookup.hpp"
#include "core/device_data.hpp"
#include "simt/engine.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::baselines {

CoarseSession::CoarseSession(const bio::SequenceDatabase& db,
                             CoarseConfig config, bool sort_by_length,
                             bool dynamic_queue)
    : config_(config),
      original_db_(&db),
      dynamic_queue_(dynamic_queue),
      db_(&db) {
  // These baselines predate Kepler's read-only cache.
  engine_.set_readonly_cache_enabled(false);
  if (config_.simtcheck) engine_.set_simtcheck_enabled(true);

  // CUDA-BLASTP sorts the database by descending length for load balance;
  // keep the permutation so extensions map back to original ids. Built
  // once per session; the cost is charged to the first search's "other"
  // phase, where the one-shot wrappers used to account it.
  if (sort_by_length && !db.empty()) {
    util::Timer sort_timer;
    std::vector<std::size_t> order(db.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return db.length(a) > db.length(b);
                     });
    std::vector<bio::Sequence> seqs;
    seqs.reserve(order.size());
    to_original_.reserve(order.size());
    for (const auto i : order) {
      seqs.push_back(db.sequence(i));
      to_original_.push_back(static_cast<std::uint32_t>(i));
    }
    sorted_storage_ = bio::SequenceDatabase(std::move(seqs));
    db_ = &sorted_storage_;
    sort_seconds_ = sort_timer.seconds();
  }
  blocks_ = db_->split_blocks(config_.db_blocks);
  resident_.resize(blocks_.size());
}

const core::BlockDevice& CoarseSession::ensure_resident(std::size_t bi) {
  if (!resident_[bi].has_value()) {
    const auto [begin, end] = blocks_[bi];
    resident_[bi].emplace(*db_, begin, end);
    try {
      engine_.transfer("h2d_block", resident_[bi]->h2d_bytes());
    } catch (...) {
      resident_[bi].reset();
      throw;
    }
    uploaded_bytes_ += resident_[bi]->h2d_bytes();
    ++uploads_;
  }
  return *resident_[bi];
}

CoarseReport CoarseSession::search(std::span<const std::uint8_t> query) {
  util::TraceSpan search_span(
      dynamic_queue_ ? "gpu_blastp.search" : "cuda_blastp.search", "baseline");
  if (search_span.active()) {
    search_span.arg("query_length", static_cast<std::uint64_t>(query.size()));
    search_span.arg("db_sequences",
                    static_cast<std::uint64_t>(original_db_->size()));
  }
  CoarseReport report;
  const simt::ProfileRegistry profile_before = engine_.profile();
  engine_.clear_hazards();

  util::Timer other_timer;
  util::TraceSpan prep_span("query_prep", "baseline");
  blast::WordLookup lookup(query, bio::Blosum62::instance(), config_.params);
  bio::Pssm pssm(query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), query.size(),
                               original_db_->total_residues(),
                               original_db_->size());
  core::QueryDevice device_query(query, lookup, pssm);
  prep_span.end();
  report.other_seconds += other_timer.seconds();
  if (first_search_) {
    report.other_seconds += sort_seconds_;
    first_search_ = false;
  }
  engine_.transfer("h2d_query", device_query.h2d_bytes());

  std::vector<blast::UngappedExtension> extensions;
  for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
    const auto [begin, end] = blocks_[bi];
    util::TraceSpan block_span;
    if (util::trace_enabled()) {
      block_span.open("db_block " + std::to_string(bi), "baseline");
      block_span.arg("first_seq", static_cast<std::uint64_t>(begin));
      block_span.arg("end_seq", static_cast<std::uint64_t>(end));
    }
    const core::BlockDevice& device_block = ensure_resident(bi);

    std::uint32_t capacity = config_.block_output_capacity;
    for (;;) {
      CoarseBlockOutput out = run_coarse_block(
          engine_, config_, dynamic_queue_, device_query, device_block,
          capacity);
      if (!out.overflowed) {
        engine_.transfer("d2h_extensions", out.d2h_bytes);
        report.result.counters.hits_detected += out.hits_detected;
        for (auto& ext : out.extensions) {
          ext.seq += device_block.first_seq;
          if (!to_original_.empty()) ext.seq = to_original_[ext.seq];
          extensions.push_back(ext);
        }
        break;
      }
      ++report.output_overflow_retries;
      capacity *= 2;
    }

    for (std::size_t s = begin; s < end; ++s)
      if (db_->length(s) >= 3)
        report.result.counters.words_scanned += db_->length(s) - 2;
  }

  report.result.counters.ungapped_extensions = extensions.size();

  // CPU phases: single-threaded, not overlapped (neither baseline
  // pipelines CPU work against the GPU).
  util::TraceSpan gapped_span("gapped_stage", "baseline");
  auto stage = blast::process_gapped_stage(pssm, *original_db_, extensions,
                                           config_.params, evalue);
  gapped_span.end();
  report.gapped_seconds = stage.gapped_seconds;
  report.traceback_seconds = stage.traceback_seconds;
  report.result.counters.gapped_extensions = stage.gapped_extensions;
  report.result.counters.tracebacks = stage.tracebacks;
  report.result.counters.dp_cells = stage.dp_cells;

  {
    util::TraceSpan finalize_span("finalize", "baseline");
    util::ScopedAccumulator finalize_time(report.other_seconds);
    report.result.alignments = std::move(stage.alignments);
    blast::finalize_results(report.result.alignments, config_.params, evalue);
  }

  // Attribute only this query's launches and transfers: the engine is
  // shared across the session's searches.
  report.profile = engine_.profile().diff(profile_before);
  report.hazards = engine_.hazards();
  report.kernel_ms = report.profile.has(kCoarseKernel)
                         ? report.profile.at(kCoarseKernel).time_ms
                         : 0.0;
  const auto transfer_ms = [&](const char* name) {
    return report.profile.has(name) ? report.profile.at(name).time_ms : 0.0;
  };
  report.h2d_ms = transfer_ms("h2d_query") + transfer_ms("h2d_block");
  report.d2h_ms = transfer_ms("d2h_extensions");
  report.total_seconds = (report.kernel_ms + report.h2d_ms + report.d2h_ms) /
                             1e3 +
                         report.gapped_seconds + report.traceback_seconds +
                         report.other_seconds;

  report.result.timings.hit_detection = report.kernel_ms / 1e3;
  report.result.timings.gapped_extension = report.gapped_seconds;
  report.result.timings.traceback = report.traceback_seconds;
  report.result.timings.other =
      report.other_seconds + (report.h2d_ms + report.d2h_ms) / 1e3;
  return report;
}

CoarseReport cuda_blastp_search(std::span<const std::uint8_t> query,
                                const bio::SequenceDatabase& db,
                                const CoarseConfig& config) {
  CoarseSession session(db, config, /*sort_by_length=*/true,
                        /*dynamic_queue=*/false);
  return session.search(query);
}

CoarseReport gpu_blastp_search(std::span<const std::uint8_t> query,
                               const bio::SequenceDatabase& db,
                               const CoarseConfig& config) {
  CoarseSession session(db, config, /*sort_by_length=*/false,
                        /*dynamic_queue=*/true);
  return session.search(query);
}

}  // namespace repro::baselines
