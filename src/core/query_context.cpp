#include "core/query_context.hpp"

#include "bio/blosum.hpp"
#include "core/errors.hpp"

namespace repro::core {

void check_search_limits(std::span<const std::uint8_t> query,
                         const bio::SequenceDatabase& db) {
  if (query.size() >= 32768)
    throw SearchError(SearchErrorCode::kInvalidArgument,
                      "query longer than the 16-bit diagonal field allows");
  if (db.max_length() >= 65536)
    throw SearchError(
        SearchErrorCode::kInvalidArgument,
        "subject longer than the 16-bit position field allows "
        "(paper Fig. 7 layout)");
}

QueryContext::QueryContext(std::span<const std::uint8_t> query_residues,
                           const bio::SequenceDatabase& db,
                           const Config& config)
    : query(query_residues),
      lookup(query_residues, bio::Blosum62::instance(), config.params),
      pssm(query_residues, bio::Blosum62::instance()),
      evalue(bio::blosum62_gapped_11_1(), query_residues.size(),
             db.total_residues(), db.size()),
      device(query_residues, lookup, pssm) {}

}  // namespace repro::core
