// Host reference for the gapped stage: the two-pass x-drop DP that
// blast::process_gapped_stage ran before it recorded directions in one pass.
// A std::function scorer, a score-only pass per seed, a second DP pass that
// records direction bytes for every seed clearing the cutoff, and the same
// per-subject dedupe. The differential tests compare the production stage
// against it cell for cell, because every engine (and so every "FSA-exact"
// suite) shares the production stage and cannot catch a wrong DP.
#pragma once

#include <algorithm>
#include <cassert>
#include <climits>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bio/database.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/gapped.hpp"
#include "blast/types.hpp"

namespace repro::testref {

namespace gapref_detail {

constexpr int kNegInf = INT_MIN / 4;

// Direction byte layout for traceback.
enum HSource : std::uint8_t { kDiag = 0, kFromE = 1, kFromF = 2, kStart = 3 };
constexpr std::uint8_t kESrcExtend = 1 << 2;  // E came from E (else from H)
constexpr std::uint8_t kFSrcExtend = 1 << 3;  // F came from F (else from H)

/// Unique gapped seed: one gapped extension is run per distinct seed point.
struct Seed {
  std::uint32_t seq;
  std::uint32_t q_seed;
  std::uint32_t s_seed;

  friend bool operator==(const Seed&, const Seed&) = default;
  friend auto operator<=>(const Seed&, const Seed&) = default;
};

struct HalfResult {
  int score = 0;
  std::uint32_t q_reach = 0;  ///< query residues consumed past the seed
  std::uint32_t s_reach = 0;  ///< subject residues consumed past the seed
  std::string ops;            ///< in sequence order away from the seed
};

/// Reusable per-thread scratch to avoid reallocating DP rows per seed.
struct Scratch {
  std::vector<int> h_prev, f_prev, h_cur, f_cur;
  std::vector<std::uint8_t> dirs;          // all rows, flattened
  std::vector<int> row_lo, row_hi;         // per-row band
  std::vector<std::size_t> row_offset;     // row start in dirs
};

inline thread_local Scratch tls_scratch;

/// One x-drop half extension. score_at(i, j) gives the substitution score
/// of the i-th query residue vs the j-th subject residue away from the seed
/// (both 1-based). q_avail/s_avail bound i/j.
inline HalfResult extend_half(const std::function<int(int, int)>& score_at,
                              std::size_t q_avail, std::size_t s_avail,
                              const blast::SearchParams& params,
                              bool want_traceback) {
  HalfResult result;
  if (q_avail == 0 && s_avail == 0) return result;

  const int x = params.gapped_xdrop;
  const int open_cost = params.gap_open + params.gap_extend;
  const int extend_cost = params.gap_extend;

  Scratch& sc = tls_scratch;
  const std::size_t width = s_avail + 2;
  if (sc.h_prev.size() < width) {
    sc.h_prev.resize(width);
    sc.f_prev.resize(width);
    sc.h_cur.resize(width);
    sc.f_cur.resize(width);
  }
  sc.dirs.clear();
  sc.row_lo.clear();
  sc.row_hi.clear();
  sc.row_offset.clear();

  int best = 0, best_i = 0, best_j = 0;

  // Row 0: leading gap in the query (consuming subject residues).
  int lo = 0, hi = 0;
  sc.h_prev[0] = 0;
  sc.f_prev[0] = kNegInf;
  if (want_traceback) {
    sc.row_lo.push_back(0);
    sc.row_offset.push_back(0);
    sc.dirs.push_back(kStart);
  }
  for (int j = 1; j <= static_cast<int>(s_avail); ++j) {
    const int val = -(open_cost + (j - 1) * extend_cost);
    if (val < best - x) break;
    sc.h_prev[static_cast<std::size_t>(j)] = val;
    sc.f_prev[static_cast<std::size_t>(j)] = kNegInf;
    hi = j;
    if (want_traceback)
      sc.dirs.push_back(static_cast<std::uint8_t>(
          kFromE | (j > 1 ? kESrcExtend : 0)));
  }
  if (want_traceback) sc.row_hi.push_back(hi);

  // Subsequent rows.
  for (int i = 1; i <= static_cast<int>(q_avail); ++i) {
    const int prev_lo = lo, prev_hi = hi;
    int new_lo = -1, new_hi = -1;
    int e = kNegInf;         // E(i, j) running along the row
    int h_left = kNegInf;    // H(i, j-1)
    const std::size_t dir_base = sc.dirs.size();
    int row_start_j = prev_lo;  // leftmost cell this row can populate

    for (int j = row_start_j; j <= static_cast<int>(s_avail); ++j) {
      // Candidate values.
      int h_diag = kNegInf;
      if (j == 0) {
        // Leading gap in the subject: H(i,0) via the F chain only.
        const int val = -(open_cost + (i - 1) * extend_cost);
        const int f0 = val;
        const int h0 = val;
        std::uint8_t dir = kFromF;
        if (i > 1) dir |= kFSrcExtend;
        if (h0 >= best - x) {
          sc.h_cur[0] = h0;
          sc.f_cur[0] = f0;
          if (new_lo < 0) new_lo = 0;
          new_hi = 0;
          if (want_traceback) sc.dirs.push_back(dir);
          h_left = h0;
        } else {
          h_left = kNegInf;
          if (new_lo < 0) row_start_j = j + 1;
        }
        e = kNegInf;
        continue;
      }
      if (j - 1 >= prev_lo && j - 1 <= prev_hi)
        h_diag = sc.h_prev[static_cast<std::size_t>(j - 1)] + score_at(i, j);

      const int e_open = h_left == kNegInf ? kNegInf : h_left - open_cost;
      const int e_ext = e == kNegInf ? kNegInf : e - extend_cost;
      const int e_val = std::max(e_open, e_ext);

      int f_open = kNegInf, f_ext = kNegInf;
      if (j >= prev_lo && j <= prev_hi) {
        f_open = sc.h_prev[static_cast<std::size_t>(j)] - open_cost;
        if (sc.f_prev[static_cast<std::size_t>(j)] != kNegInf)
          f_ext = sc.f_prev[static_cast<std::size_t>(j)] - extend_cost;
      }
      const int f_val = std::max(f_open, f_ext);

      int h = std::max({h_diag, e_val, f_val});
      std::uint8_t dir;
      if (h == kNegInf) {
        dir = kStart;
      } else if (h == h_diag) {
        dir = kDiag;
      } else if (h == e_val) {
        dir = kFromE;
      } else {
        dir = kFromF;
      }
      if (e_val != kNegInf && e_val == e_ext) dir |= kESrcExtend;
      if (f_val != kNegInf && f_val == f_ext) dir |= kFSrcExtend;

      const bool alive =
          (h != kNegInf && h >= best - x) ||
          (e_val != kNegInf && e_val >= best - x) ||
          (f_val != kNegInf && f_val >= best - x);

      if (!alive) {
        if (new_lo < 0) {
          // Still hunting for the first live cell of this row.
          h_left = kNegInf;
          e = kNegInf;
          row_start_j = j + 1;
          continue;
        }
        // Past the live region: nothing to the right can revive once we
        // are beyond the previous row's band (no diag/F feed) and the E
        // chain is dead.
        if (j > prev_hi + 1) break;
        h_left = kNegInf;
        e = e_val;
        // Record a dead cell so traceback indexing stays dense.
        sc.h_cur[static_cast<std::size_t>(j)] = kNegInf;
        sc.f_cur[static_cast<std::size_t>(j)] = kNegInf;
        new_hi = j;
        if (want_traceback) sc.dirs.push_back(dir);
        continue;
      }

      if (new_lo < 0) new_lo = j;
      new_hi = j;
      sc.h_cur[static_cast<std::size_t>(j)] = h;
      sc.f_cur[static_cast<std::size_t>(j)] = f_val;
      if (want_traceback) sc.dirs.push_back(dir);
      h_left = h;
      e = e_val;

      if (h > best) {
        best = h;
        best_i = i;
        best_j = j;
      }
    }

    if (new_lo < 0) break;  // row empty: extension exhausted
    lo = new_lo;
    hi = new_hi;
    if (want_traceback) {
      sc.row_lo.push_back(lo);
      sc.row_hi.push_back(hi);
      sc.row_offset.push_back(dir_base + static_cast<std::size_t>(
          lo - row_start_j > 0 ? 0 : 0));
      // dirs for this row start at dir_base and cover [row_start_actual, hi];
      // row_start_actual equals new_lo only if no dead prefix was recorded.
      // We recorded bytes starting at the first *recorded* cell, which is
      // new_lo (dead prefix cells were skipped, dead suffix cells recorded).
      sc.row_offset.back() = dir_base;
    }
    std::swap(sc.h_prev, sc.h_cur);
    std::swap(sc.f_prev, sc.f_cur);
  }

  result.score = best;
  result.q_reach = static_cast<std::uint32_t>(best_i);
  result.s_reach = static_cast<std::uint32_t>(best_j);

  if (want_traceback && (best_i > 0 || best_j > 0)) {
    // Walk direction bytes from (best_i, best_j) back to (0, 0).
    auto dir_at = [&](int i, int j) -> std::uint8_t {
      const std::size_t row = static_cast<std::size_t>(i);
      assert(row < sc.row_lo.size());
      assert(j >= sc.row_lo[row] && j <= sc.row_hi[row]);
      return sc.dirs[sc.row_offset[row] +
                     static_cast<std::size_t>(j - sc.row_lo[row])];
    };
    std::string ops;
    int i = best_i, j = best_j;
    enum class State { H, E, F } state = State::H;
    while (i > 0 || j > 0) {
      const std::uint8_t d = dir_at(i, j);
      switch (state) {
        case State::H:
          switch (d & 0x3) {
            case kDiag:
              ops.push_back('M');
              --i;
              --j;
              break;
            case kFromE:
              state = State::E;
              break;
            case kFromF:
              state = State::F;
              break;
            default:
              assert(false && "traceback hit a start cell prematurely");
              i = 0;
              j = 0;
              break;
          }
          break;
        case State::E:
          ops.push_back('I');
          state = (d & kESrcExtend) ? State::E : State::H;
          --j;
          break;
        case State::F:
          ops.push_back('D');
          state = (d & kFSrcExtend) ? State::F : State::H;
          --i;
          break;
      }
    }
    // Emitted far-end-first; callers want seed-outward order reversed into
    // sequence order, which they assemble themselves. Keep far-first here.
    result.ops = std::move(ops);
  }
  return result;
}

}  // namespace gapref_detail

/// Score-only gapped extension from seed (qseed, sseed).
inline blast::GappedScore gapped_score(const bio::Pssm& pssm,
                                       std::span<const std::uint8_t> subject,
                                       std::uint32_t qseed,
                                       std::uint32_t sseed,
                                       const blast::SearchParams& params) {
  using gapref_detail::extend_half;
  using gapref_detail::HalfResult;
  const auto qlen = static_cast<std::uint32_t>(pssm.query_length());
  const auto slen = static_cast<std::uint32_t>(subject.size());
  assert(qseed < qlen && sseed < slen);

  const int seed_score = pssm.score(qseed, subject[sseed]);

  const HalfResult right = extend_half(
      [&](int i, int j) {
        return pssm.score(qseed + static_cast<std::uint32_t>(i),
                          subject[sseed + static_cast<std::uint32_t>(j)]);
      },
      qlen - 1 - qseed, slen - 1 - sseed, params, /*want_traceback=*/false);

  const HalfResult left = extend_half(
      [&](int i, int j) {
        return pssm.score(qseed - static_cast<std::uint32_t>(i),
                          subject[sseed - static_cast<std::uint32_t>(j)]);
      },
      qseed, sseed, params, /*want_traceback=*/false);

  blast::GappedScore out;
  out.score = seed_score + left.score + right.score;
  out.q_start = qseed - left.q_reach;
  out.s_start = sseed - left.s_reach;
  out.q_end = qseed + right.q_reach;
  out.s_end = sseed + right.s_reach;
  return out;
}

/// Full gapped extension with traceback (a second DP pass).
inline blast::Alignment gapped_traceback(const bio::Pssm& pssm,
                                         std::span<const std::uint8_t> subject,
                                         std::uint32_t seq_index,
                                         std::uint32_t qseed,
                                         std::uint32_t sseed,
                                         const blast::SearchParams& params) {
  using gapref_detail::extend_half;
  using gapref_detail::HalfResult;
  const auto qlen = static_cast<std::uint32_t>(pssm.query_length());
  const auto slen = static_cast<std::uint32_t>(subject.size());
  assert(qseed < qlen && sseed < slen);

  const int seed_score = pssm.score(qseed, subject[sseed]);

  const HalfResult right = extend_half(
      [&](int i, int j) {
        return pssm.score(qseed + static_cast<std::uint32_t>(i),
                          subject[sseed + static_cast<std::uint32_t>(j)]);
      },
      qlen - 1 - qseed, slen - 1 - sseed, params, /*want_traceback=*/true);
  // right.ops is emitted far-end first: reversing yields seed->right order.
  std::string right_ops(right.ops.rbegin(), right.ops.rend());

  const HalfResult left = extend_half(
      [&](int i, int j) {
        return pssm.score(qseed - static_cast<std::uint32_t>(i),
                          subject[sseed - static_cast<std::uint32_t>(j)]);
      },
      qseed, sseed, params, /*want_traceback=*/true);
  // left.ops is emitted far-end first, and for the left half "far end" is
  // the leftmost (sequence-order first) residue — already in order.
  const std::string& left_ops = left.ops;

  blast::Alignment alignment;
  alignment.seq = seq_index;
  alignment.score = seed_score + left.score + right.score;
  alignment.q_start = qseed - left.q_reach;
  alignment.s_start = sseed - left.s_reach;
  alignment.q_end = qseed + right.q_reach;
  alignment.s_end = sseed + right.s_reach;
  alignment.ops.reserve(left_ops.size() + 1 + right_ops.size());
  alignment.ops += left_ops;
  alignment.ops.push_back('M');
  alignment.ops += right_ops;
  return alignment;
}

/// Drops exact-duplicate alignments and strictly-contained lower-scoring
/// ones within each subject sequence.
inline void dedupe_alignments(std::vector<blast::Alignment>& alignments) {
  using blast::Alignment;
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

struct ReferenceStage {
  std::vector<blast::Alignment> alignments;
  std::uint64_t gapped_extensions = 0;
  std::uint64_t tracebacks = 0;
};

/// The gapped stage as two DP passes: one gapped extension per distinct
/// seed, a traceback pass for each score that clears the cutoff, dedupe.
inline ReferenceStage gapped_stage(
    const bio::Pssm& pssm, const bio::SequenceDatabase& db,
    std::span<const blast::UngappedExtension> extensions,
    const blast::SearchParams& params, const bio::EvalueCalculator& evalue) {
  using gapref_detail::Seed;
  std::vector<Seed> seeds;
  seeds.reserve(extensions.size());
  for (const auto& ext : extensions)
    seeds.push_back(Seed{ext.seq, ext.q_seed(), ext.s_seed()});
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  const int cutoff = evalue.min_significant_score(params.max_evalue);
  ReferenceStage out;
  for (const Seed& seed : seeds) {
    const auto subject = db.residues(seed.seq);
    const blast::GappedScore gs =
        testref::gapped_score(pssm, subject, seed.q_seed, seed.s_seed, params);
    ++out.gapped_extensions;
    if (gs.score < cutoff) continue;
    ++out.tracebacks;
    out.alignments.push_back(testref::gapped_traceback(
        pssm, subject, seed.seq, seed.q_seed, seed.s_seed, params));
  }
  dedupe_alignments(out.alignments);
  return out;
}

}  // namespace repro::testref
