// Shared plumbing for the example tools: FASTA loading with the --lenient
// policy and warning report, the engine-config flags every tool accepts,
// and the common top-level exception handler. Each example used to
// hand-roll these; keeping them here means the tools agree on flag names
// and error output.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bio/database.hpp"
#include "bio/fasta.hpp"
#include "core/config.hpp"
#include "util/options.hpp"

namespace repro::examples {

/// Reads a FASTA file under the shared policy flag (--lenient maps unknown
/// residues to X instead of throwing) and reports any parse warnings to
/// stderr, prefixed with the tool name.
std::vector<bio::Sequence> load_fasta(const std::string& path, bool lenient,
                                      const char* tool);

/// load_fasta, packed into a SequenceDatabase.
bio::SequenceDatabase load_database(const std::string& path, bool lenient,
                                    const char* tool);

/// The engine-config flags shared by the tools: --evalue, --threads,
/// --engine_workers, --shards, --strategy=window|diagonal|hit,
/// --simtcheck, --svccheck. Flags a tool doesn't pass keep the paper
/// defaults.
core::Config config_from_options(const util::Options& options);

/// The keys config_from_options reads.
inline const std::vector<std::string_view> kConfigKeys = {
    "evalue", "threads", "engine_workers", "shards",
    "strategy", "simtcheck", "svccheck"};

/// A tool's start-up check of its flags against the keys it reads: prints
/// "<tool>: unknown option --KEY" for each other one and returns false, so
/// the tool exits 2 instead of running the defaults on a mistyped flag.
bool known_options_only(const util::Options& options,
                        std::vector<std::string_view> keys,
                        const char* tool);

/// Runs `body` under the shared top-level handler: any std::exception is
/// printed as "<tool>: error: ..." and the process exits 1.
int run_tool(const char* tool, const std::function<int()>& body);

}  // namespace repro::examples
