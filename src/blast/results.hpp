// Final-phase plumbing shared by all engines: running the gapped and
// traceback stages over ungapped survivors, de-duplicating HSPs, attaching
// e-values, and ranking — so that two engines that agree on the ungapped
// survivors provably produce identical SearchResults.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bio/database.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/types.hpp"

namespace repro::blast {

/// Seeds that survived the ungapped stage, grouped however the engine
/// produced them. process_gapped_stage sorts and de-duplicates internally.
struct GappedStageOutput {
  std::vector<Alignment> alignments;  ///< unranked, evalue not yet attached
  std::uint64_t gapped_extensions = 0;
  std::uint64_t tracebacks = 0;
  std::uint64_t dp_cells = 0;  ///< sum of GappedScore::cells over the seeds
  double gapped_seconds = 0.0;
  double traceback_seconds = 0.0;
  /// Per-seed costs (seconds of thread CPU time), for the makespan
  /// scheduling model.
  std::vector<double> gapped_task_costs;
  std::vector<double> traceback_task_costs;
};

/// Runs one recorded gapped extension per distinct seed and walks the
/// record back into an alignment for every seed whose score clears the
/// e-value cutoff; the others are dropped before traceback, as in BLAST.
/// Deterministic regardless of the input order of `extensions`.
[[nodiscard]] GappedStageOutput process_gapped_stage(
    const bio::Pssm& pssm, const bio::SequenceDatabase& db,
    std::span<const UngappedExtension> extensions, const SearchParams& params,
    const bio::EvalueCalculator& evalue);

/// Attaches e-values/bit scores, filters by params.max_evalue, and ranks
/// best-first (score desc, then seq, then coordinates — a total order, so
/// ranking is deterministic).
void finalize_results(std::vector<Alignment>& alignments,
                      const SearchParams& params,
                      const bio::EvalueCalculator& evalue);

/// Removes duplicate and strictly-contained HSPs per subject sequence.
/// Exposed for the hit-based extension path, which produces redundant
/// extensions by design (paper Algorithm 4 requires a de-duplication step).
void dedupe_extensions(std::vector<UngappedExtension>& extensions);

/// Pretty-prints an alignment the way blastp output does (three-row blocks:
/// query, midline, subject).
[[nodiscard]] std::string format_alignment(
    std::span<const std::uint8_t> query, const bio::SequenceDatabase& db,
    const Alignment& alignment, std::size_t width = 60);

}  // namespace repro::blast
