// Stage 1 of the staged search pipeline: everything derived from one query
// before any database block is touched — the DFA word lookup, the PSSM,
// the e-value calculator, and the device-resident query image (the paper's
// "Other" phase of Fig. 19d). Built once per query, then shared read-only
// by every later stage and every engine shard.
#pragma once

#include <cstdint>
#include <span>

#include "bio/database.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/wordlookup.hpp"
#include "core/config.hpp"
#include "core/device_data.hpp"

namespace repro::core {

/// Throws SearchError{kInvalidArgument} when the query or a database
/// subject exceeds the 16-bit packed-hit field widths (paper Fig. 7
/// layout). Called by SearchSession before any stage runs.
void check_search_limits(std::span<const std::uint8_t> query,
                         const bio::SequenceDatabase& db);

struct QueryContext {
  std::span<const std::uint8_t> query;  ///< caller-owned, outlives the search
  blast::WordLookup lookup;
  bio::Pssm pssm;
  bio::EvalueCalculator evalue;
  QueryDevice device;

  /// The e-value calculator's search space is the whole of `db`, so every
  /// shard of a session derives the same cutoffs and e-values, whichever
  /// blocks it holds.
  QueryContext(std::span<const std::uint8_t> query_residues,
               const bio::SequenceDatabase& db, const Config& config);
};

}  // namespace repro::core
