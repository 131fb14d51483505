#include "blast/results.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "bio/alphabet.hpp"
#include "blast/gapped.hpp"
#include "util/timer.hpp"

namespace repro::blast {

namespace {

/// Unique gapped seed: one gapped extension is run per distinct seed point.
struct Seed {
  std::uint32_t seq;
  std::uint32_t q_seed;
  std::uint32_t s_seed;

  friend bool operator==(const Seed&, const Seed&) = default;
  friend auto operator<=>(const Seed&, const Seed&) = default;
};

/// Drops exact-duplicate alignments and strictly-contained lower-scoring
/// ones within each subject sequence.
void dedupe_alignments(std::vector<Alignment>& alignments) {
  // The tie-break on ops makes the order (and hence which of two
  // equal-coordinate, equal-score alignments survives de-duplication)
  // independent of input order — required for engines that process the
  // database in different block partitions to produce identical output.
  std::sort(alignments.begin(), alignments.end(),
            [](const Alignment& a, const Alignment& b) {
              return std::tie(a.seq, b.score, a.q_start, a.s_start, a.q_end,
                              a.s_end, a.ops) <
                     std::tie(b.seq, a.score, b.q_start, b.s_start, b.q_end,
                              b.s_end, b.ops);
            });
  std::vector<Alignment> kept;
  kept.reserve(alignments.size());
  std::size_t seq_first = 0;  // first kept alignment of the current seq
  for (auto& cand : alignments) {
    if (!kept.empty() && kept.back().seq != cand.seq)
      seq_first = kept.size();
    bool redundant = false;
    for (std::size_t i = seq_first; i < kept.size(); ++i) {
      const Alignment& k = kept[i];
      const bool contained = cand.q_start >= k.q_start &&
                             cand.q_end <= k.q_end &&
                             cand.s_start >= k.s_start &&
                             cand.s_end <= k.s_end;
      if (contained && cand.score <= k.score) {
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(std::move(cand));
  }
  alignments = std::move(kept);
}

}  // namespace

void dedupe_extensions(std::vector<UngappedExtension>& extensions) {
  std::sort(extensions.begin(), extensions.end(),
            [](const UngappedExtension& a, const UngappedExtension& b) {
              return std::tie(a.seq, a.s_start, a.q_start, b.s_end, b.score) <
                     std::tie(b.seq, b.s_start, b.q_start, a.s_end, a.score);
            });
  std::vector<UngappedExtension> kept;
  kept.reserve(extensions.size());
  for (auto& ext : extensions) {
    if (!kept.empty()) {
      const UngappedExtension& prev = kept.back();
      if (prev == ext) continue;  // exact duplicate
      // Same diagonal, contained in the previous segment, not better.
      if (prev.seq == ext.seq && prev.diagonal() == ext.diagonal() &&
          ext.s_start >= prev.s_start && ext.s_end <= prev.s_end &&
          ext.score <= prev.score)
        continue;
    }
    kept.push_back(ext);
  }
  extensions = std::move(kept);
}

GappedStageOutput process_gapped_stage(
    const bio::Pssm& pssm, const bio::SequenceDatabase& db,
    std::span<const UngappedExtension> extensions, const SearchParams& params,
    const bio::EvalueCalculator& evalue) {
  GappedStageOutput out;

  // One gapped extension per distinct seed point, in deterministic order.
  std::vector<Seed> seeds;
  seeds.reserve(extensions.size());
  for (const auto& ext : extensions)
    seeds.push_back(Seed{ext.seq, ext.q_seed(), ext.s_seed()});
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  const int traceback_cutoff =
      evalue.min_significant_score(params.max_evalue);

  GappedAligner aligner(pssm, params);
  for (const Seed& seed : seeds) {
    const auto subject = db.residues(seed.seq);
    util::ThreadCpuTimer gapped_timer;
    const GappedScore gs = aligner.extend(subject, seed.q_seed, seed.s_seed);
    const double gapped_cost = gapped_timer.seconds();
    out.gapped_seconds += gapped_cost;
    out.gapped_task_costs.push_back(gapped_cost);
    ++out.gapped_extensions;
    out.dp_cells += gs.cells;
    if (gs.score < traceback_cutoff) continue;

    util::ThreadCpuTimer traceback_timer;
    Alignment alignment = aligner.traceback(seed.seq);
    const double tb_cost = traceback_timer.seconds();
    out.traceback_seconds += tb_cost;
    out.traceback_task_costs.push_back(tb_cost);
    ++out.tracebacks;
    out.alignments.push_back(std::move(alignment));
  }

  dedupe_alignments(out.alignments);
  return out;
}

void finalize_results(std::vector<Alignment>& alignments,
                      const SearchParams& params,
                      const bio::EvalueCalculator& evalue) {
  for (auto& a : alignments) {
    a.bit_score = evalue.bit_score(a.score);
    a.evalue = evalue.evalue(a.score);
  }
  std::erase_if(alignments, [&](const Alignment& a) {
    return a.evalue > params.max_evalue;
  });
  std::sort(alignments.begin(), alignments.end(),
            [](const Alignment& a, const Alignment& b) {
              return std::tie(b.score, a.seq, a.q_start, a.s_start, a.q_end,
                              a.s_end, a.ops) <
                     std::tie(a.score, b.seq, b.q_start, b.s_start, b.q_end,
                              b.s_end, b.ops);
            });
}

std::string format_alignment(std::span<const std::uint8_t> query,
                             const bio::SequenceDatabase& db,
                             const Alignment& alignment, std::size_t width) {
  const auto subject = db.residues(alignment.seq);
  const auto& matrix = bio::Blosum62::instance();

  std::string q_row, mid_row, s_row;
  std::uint32_t qi = alignment.q_start, si = alignment.s_start;
  for (const char op : alignment.ops) {
    switch (op) {
      case 'M': {
        const char qc = bio::decode_letter(query[qi]);
        const char sc = bio::decode_letter(subject[si]);
        q_row.push_back(qc);
        s_row.push_back(sc);
        if (qc == sc)
          mid_row.push_back(qc);
        else if (matrix.score(query[qi], subject[si]) > 0)
          mid_row.push_back('+');
        else
          mid_row.push_back(' ');
        ++qi;
        ++si;
        break;
      }
      case 'D':
        q_row.push_back(bio::decode_letter(query[qi]));
        s_row.push_back('-');
        mid_row.push_back(' ');
        ++qi;
        break;
      case 'I':
        q_row.push_back('-');
        s_row.push_back(bio::decode_letter(subject[si]));
        mid_row.push_back(' ');
        ++si;
        break;
      default:
        break;
    }
  }

  std::ostringstream text;
  text << "> " << db.id(alignment.seq);
  if (!db.description(alignment.seq).empty())
    text << " " << db.description(alignment.seq);
  text << "\n  Score = " << alignment.bit_score << " bits (" << alignment.score
       << "), Expect = " << alignment.evalue << "\n";
  std::uint32_t q_coord = alignment.q_start + 1;
  std::uint32_t s_coord = alignment.s_start + 1;
  for (std::size_t i = 0; i < q_row.size(); i += width) {
    const std::size_t n = std::min(width, q_row.size() - i);
    const std::string q_chunk = q_row.substr(i, n);
    const std::string m_chunk = mid_row.substr(i, n);
    const std::string s_chunk = s_row.substr(i, n);
    const auto q_used = static_cast<std::uint32_t>(
        std::count_if(q_chunk.begin(), q_chunk.end(),
                      [](char c) { return c != '-'; }));
    const auto s_used = static_cast<std::uint32_t>(
        std::count_if(s_chunk.begin(), s_chunk.end(),
                      [](char c) { return c != '-'; }));
    text << "  Query " << q_coord << "\t" << q_chunk << "\t"
         << q_coord + q_used - 1 << "\n";
    text << "        \t" << m_chunk << "\n";
    text << "  Sbjct " << s_coord << "\t" << s_chunk << "\t"
         << s_coord + s_used - 1 << "\n\n";
    q_coord += q_used;
    s_coord += s_used;
  }
  return text.str();
}

}  // namespace repro::blast
