// Device buffers are left unfilled, as cudaMalloc leaves them: a
// DeviceVector built without a value holds whatever the heap held, and its
// pages are committed only when something writes them. These tests pin
// both halves: construction writes nothing, and no search reads a byte
// that a kernel or a host staging copy did not write first.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bio/generator.hpp"
#include "core/search_session.hpp"
#include "simt/device_buffer.hpp"
#include "util/fault.hpp"

namespace repro {
namespace {

/// Resident pages among those [p, p + bytes) touches (mincore).
std::size_t resident_pages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto end =
      (reinterpret_cast<std::uintptr_t>(p) + bytes + page - 1) / page * page;
  std::vector<unsigned char> pages((end - begin) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, pages.data()),
            0);
  return static_cast<std::size_t>(
      std::count_if(pages.begin(), pages.end(),
                    [](unsigned char c) { return (c & 1) != 0; }));
}

TEST(DeviceVector, ValueConstructionCommitsNoPages) {
  // A fixed 1 MiB mmap threshold, as perfbench sets: the buffer is then a
  // fresh mapping, whose pages are committed only when written.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  constexpr std::size_t kBytes = std::size_t{16} << 20;
  const simt::DeviceVector<std::uint64_t> v(kBytes / sizeof(std::uint64_t));
  std::size_t resident = resident_pages(v.data(), kBytes);
#if defined(__SANITIZE_ADDRESS__)
  // ASan writes malloc_fill_byte (0xbe) over the first max_malloc_fill_size
  // bytes of every allocation before construction runs. Those pages are
  // ASan's; construction must have left its fill in place.
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  std::size_t filled = 0;
  while (filled < kBytes && bytes[filled] == 0xbe) ++filled;
  resident -= std::min(resident, filled / static_cast<std::size_t>(
                                              sysconf(_SC_PAGESIZE)));
#endif
  // Slack for the allocator's chunk header and a partly filled first page.
  EXPECT_LE(resident, 2u);
}

struct Workload {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
};

Workload make_workload() {
  Workload w;
  w.query = bio::make_benchmark_query(181, 31).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(60);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, 17);
  w.db = gen.generate(w.query);
  return w;
}

/// What a search returns that must not depend on the heap: alignments,
/// BLAST counters and the address-independent per-kernel counters.
struct Outcome {
  std::vector<blast::Alignment> alignments;
  std::vector<std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> kernels;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const core::SearchReport& report) {
  Outcome out;
  out.alignments = report.result.alignments;
  const auto& c = report.result.counters;
  out.counters = {c.hits_detected,     c.hits_after_filter,
                  c.ungapped_extensions, c.gapped_extensions,
                  c.tracebacks,        c.dp_cells,
                  report.bin_overflow_retries};
  for (const auto& [name, s] : report.profile.kernels())
    out.kernels[name] = {s.vec_ops,
                         s.active_lane_sum,
                         s.ld_requests,
                         s.ld_bytes_requested,
                         s.ld_transactions + s.rocache_hits,
                         s.st_requests,
                         s.st_bytes_requested,
                         s.st_transactions,
                         s.shared_ops,
                         s.shared_conflict_passes,
                         s.atomic_ops,
                         s.atomic_serial_passes};
  return out;
}

/// Every extension strategy and scoring path on one and two shards, then a
/// search whose first detection launch reports a bin overflow.
std::vector<Outcome> run_searches(const Workload& w) {
  std::vector<Outcome> outcomes;
  core::Config base;
  base.db_blocks = 2;
  base.detection_blocks = 2;  // keep the simulated grid small for tests
  for (const auto strategy :
       {core::ExtensionStrategy::kDiagonal, core::ExtensionStrategy::kHit,
        core::ExtensionStrategy::kWindow}) {
    for (const auto scoring :
         {core::ScoringMode::kPssm, core::ScoringMode::kBlosum}) {
      core::Config config = base;
      config.strategy = strategy;
      config.scoring = scoring;
      outcomes.push_back(
          outcome_of(core::SearchSession(config, w.db).search(w.query)));
      config.shards = 2;
      outcomes.push_back(
          outcome_of(core::SearchSession(config, w.db).search(w.query)));
    }
  }
  util::FaultScope faults("core.bin_overflow:nth=1", 7);
  const core::SearchReport forced =
      core::SearchSession(base, w.db).search(w.query);
  EXPECT_EQ(forced.bin_overflow_retries, 1u);
  outcomes.push_back(outcome_of(forced));
  return outcomes;
}

TEST(DeviceMemory, ResultsIndependentOfPriorHeapContents) {
  const Workload w = make_workload();
  const std::vector<Outcome> clean = run_searches(w);
  ASSERT_FALSE(clean.front().alignments.empty());

  // M_PERTURB fills each allocation with 0x5a and each freed chunk with
  // 0xa5. A threshold above every buffer of these searches keeps device
  // buffers on the perturbed heap, recycling each other's freed bytes, so
  // a read of an unwritten byte changes what a search returns. (ASan
  // ignores mallopt; its malloc fill does the same job there.)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_PERTURB, 0xa5);
  const std::vector<Outcome> perturbed = run_searches(w);
  mallopt(M_PERTURB, 0);

  ASSERT_EQ(perturbed.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    EXPECT_TRUE(perturbed[i] == clean[i]) << "search " << i;
}

}  // namespace
}  // namespace repro
