// The benchmark's workloads, generated from a seed. The program under test
// receives only the generated database and queries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bio/database.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string description;  ///< one line: database, queries, how they are sent
  repro::bio::SequenceDatabase db;
  /// Sent by a closed loop of one caller, one search at a time, in turn.
  std::vector<std::vector<std::uint8_t>> queries;
};

/// Builds workload `name` from `seed`. Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace perfbench
