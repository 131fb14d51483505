#include "blast/gapped.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstddef>
#include <utility>

namespace repro::blast {

namespace {

// Values derived from kNegInf (a few gap costs or scores away) stay far
// below any live cell, so no cell needs to test for it.
constexpr int kNegInf = INT_MIN / 4;

// Direction byte of a cell. H came from the diagonal unless kNotDiag is
// set, else from E unless kNotE is set, else from F: ties break diagonal,
// then E, then F. The other two bits say whether E and F extend a gap.
constexpr std::uint8_t kNotDiag = 1 << 0;
constexpr std::uint8_t kNotE = 1 << 1;
constexpr std::uint8_t kESrcExtend = 1 << 2;  // E came from E (else from H)
constexpr std::uint8_t kFSrcExtend = 1 << 3;  // F came from F (else from H)

}  // namespace

GappedAligner::GappedAligner(const bio::Pssm& pssm,
                             const SearchParams& params)
    : pssm_(pssm),
      xdrop_(params.gapped_xdrop),
      open_cost_(params.gap_open + params.gap_extend),
      extend_cost_(params.gap_extend) {}

/// One x-drop half extension away from the seed. Row i is the i-th query
/// residue past the seed and column j the j-th subject residue, both in the
/// direction kDir (+1 right, -1 left); row 0 and column 0 are the seed.
template <int kDir>
GappedAligner::Half GappedAligner::extend_half(
    Record& record, const std::uint8_t* seed_residue, std::uint32_t qseed,
    int q_avail, int s_avail) {
  record.rows.clear();
  record.used = 0;
  record.best_row = record.best_col = 0;
  if (q_avail == 0 && s_avail == 0) return {};

  // Rows hold columns -1 .. s_avail + 1; -1 and one past a band's end are
  // -inf sentinels, so a row's main loop needs no band tests.
  const auto width = static_cast<std::size_t>(s_avail) + 3;
  if (prev_row_.size() < width) {
    prev_row_.resize(width);
    cur_row_.resize(width);
  }
  Cell* prev = prev_row_.data() + 1;
  Cell* cur = cur_row_.data() + 1;

  const int x = xdrop_, open = open_cost_, ext = extend_cost_;
  constexpr std::ptrdiff_t step = kDir;
  int best = 0, best_i = 0, best_j = 0;
  int floor = best - x;  // a cell is live iff its H reaches this
  std::uint64_t cells = 0;

  // A row's direction bytes from column first_col on; room for the rest of
  // the subject, the row's widest possible extent.
  auto begin_row = [&](int first_col) {
    const std::size_t need =
        record.used + static_cast<std::size_t>(s_avail - first_col + 1);
    if (record.dirs.size() < need)
      record.dirs.resize(std::max(need, 2 * record.dirs.size()));
    record.rows.push_back(Row{record.used, first_col});
    return record.dirs.data() + record.used;
  };

  // Past the previous row's band only E (a gap in the query) can feed a
  // cell, and E stays below the H of the cell to its left, so the row ends
  // at its first dead cell and the best cannot move. Returns the last
  // column.
  auto extend_tail = [&](int j, int h_left, int e, Cell* row,
                         std::uint8_t* dir) {
    for (; j <= s_avail; ++j) {
      ++cells;
      const int e_open = h_left - open, e_ext = e - ext;
      const int e_val = std::max(e_open, e_ext);
      if (e_val < floor) break;
      *dir++ = static_cast<std::uint8_t>(
          kNotDiag | (e_ext >= e_open ? kESrcExtend : 0));
      row[j] = Cell{e_val, kNegInf};
      h_left = e = e_val;
    }
    return j - 1;
  };

  // Row 0: the seed cell, then a leading gap in the query.
  std::uint8_t* dir = begin_row(0);
  *dir = 0;  // the seed: the walk stops here
  prev[0] = Cell{0, kNegInf};
  int lo = 0;
  int hi = extend_tail(1, 0, kNegInf, prev, dir + 1);
  record.used += static_cast<std::size_t>(hi + 1);

  // Row i scores against the PSSM column of query position qseed + kDir*i.
  const bio::Score* col = pssm_.device_buffer().data() +
                          static_cast<std::size_t>(qseed) *
                              bio::kPaddedMatrixDim;
  for (int i = 1; i <= q_avail; ++i) {
    col += step * bio::kPaddedMatrixDim;
    prev[lo - 1].h = kNegInf;
    prev[hi + 1] = Cell{kNegInf, kNegInf};
    const int last = std::min(hi + 1, s_avail);
    dir = begin_row(lo);

    // Main loop over [lo, hi + 1]: every read is inside the previous band
    // or on a sentinel. A dead cell stores -inf for the next row, so
    // nothing grows from it there. Along the row its raw H still feeds E,
    // but an E value that passes a dead cell stays below the floor, so it
    // never makes a cell live, sets a live cell's value or wins its tie.
    const Cell* up = prev + lo;
    Cell* out = cur + lo;
    const std::uint8_t* residue = seed_residue + step * lo;
    const int n = last - lo + 1;
    int h_left = kNegInf, e = kNegInf;
    int h_up_left = up[-1].h;
    for (int k = 0; k < n; ++k) {
      const int h_up = up[k].h;
      const int h_diag = h_up_left + col[residue[step * k]];
      h_up_left = h_up;
      const int e_open = h_left - open, e_ext = e - ext;
      const int e_val = std::max(e_open, e_ext);
      const int f_open = h_up - open, f_ext = up[k].f - ext;
      const int f_val = std::max(f_open, f_ext);
      const int h = std::max(std::max(h_diag, f_val), e_val);
      dir[k] = static_cast<std::uint8_t>(
          (h != h_diag ? kNotDiag : 0) | (h != e_val ? kNotE : 0) |
          (e_ext >= e_open ? kESrcExtend : 0) |
          (f_ext >= f_open ? kFSrcExtend : 0));
      const bool alive = h >= floor;
      out[k] = Cell{alive ? h : kNegInf, alive ? f_val : kNegInf};
      h_left = h;
      e = e_val;
      if (h > best) [[unlikely]] {
        best = h;
        best_i = i;
        best_j = lo + k;
        floor = best - x;
      }
    }
    cells += static_cast<std::uint64_t>(n);
    int first_live = 0;
    while (first_live < n && out[first_live].h == kNegInf) ++first_live;
    if (first_live == n) {
      // No live cell by the band's end: the extension is exhausted.
      record.rows.pop_back();
      break;
    }
    // The next row's band spans this row's live cells, from the first to
    // the last or to the end of the E chain that runs on from a live last
    // cell: past a dead cell only E can feed a cell, and that E is dead.
    int last_live = n - 1;
    while (out[last_live].h == kNegInf) --last_live;
    hi = last_live == n - 1 ? extend_tail(last + 1, h_left, e, cur, dir + n)
                            : lo + last_live;
    record.used += static_cast<std::size_t>(hi - lo + 1);
    lo += first_live;
    std::swap(prev, cur);
  }

  record.best_row = best_i;
  record.best_col = best_j;
  return Half{best, cells};
}

GappedScore GappedAligner::extend(std::span<const std::uint8_t> subject,
                                  std::uint32_t qseed, std::uint32_t sseed) {
  const auto qlen = static_cast<std::uint32_t>(pssm_.query_length());
  const auto slen = static_cast<std::uint32_t>(subject.size());
  assert(qseed < qlen && sseed < slen);

  const std::uint8_t* seed_residue = subject.data() + sseed;
  const Half right =
      extend_half<+1>(right_, seed_residue, qseed,
                      static_cast<int>(qlen - 1 - qseed),
                      static_cast<int>(slen - 1 - sseed));
  const Half left = extend_half<-1>(left_, seed_residue, qseed,
                                    static_cast<int>(qseed),
                                    static_cast<int>(sseed));

  GappedScore& out = last_;
  out.score = pssm_.score(qseed, subject[sseed]) + left.score + right.score;
  out.q_start = qseed - static_cast<std::uint32_t>(left_.best_row);
  out.s_start = sseed - static_cast<std::uint32_t>(left_.best_col);
  out.q_end = qseed + static_cast<std::uint32_t>(right_.best_row);
  out.s_end = sseed + static_cast<std::uint32_t>(right_.best_col);
  out.cells = left.cells + right.cells;
  return out;
}

/// Appends the half's transcript from its best cell back to the seed, far
/// end first.
void GappedAligner::walk_back(const Record& record, std::string& ops) {
  int i = record.best_row, j = record.best_col;
  enum class State { H, E, F } state = State::H;
  while (i > 0 || j > 0) {
    const Row& row = record.rows[static_cast<std::size_t>(i)];
    assert(j >= row.first_col);
    const std::uint8_t d =
        record.dirs[row.offset + static_cast<std::size_t>(j - row.first_col)];
    switch (state) {
      case State::H:
        if (!(d & kNotDiag)) {
          ops.push_back('M');
          --i;
          --j;
        } else {
          state = (d & kNotE) ? State::F : State::E;
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
}

Alignment GappedAligner::traceback(std::uint32_t seq_index) const {
  Alignment alignment;
  alignment.seq = seq_index;
  alignment.score = last_.score;
  alignment.q_start = last_.q_start;
  alignment.s_start = last_.s_start;
  alignment.q_end = last_.q_end;
  alignment.s_end = last_.s_end;
  alignment.ops.reserve(last_.q_end - last_.q_start + last_.s_end -
                        last_.s_start + 1);
  // The left half's far end is its sequence-order first residue, so its
  // far-end-first walk is already in order; the right half's is reversed.
  walk_back(left_, alignment.ops);
  alignment.ops.push_back('M');
  const std::size_t right_begin = alignment.ops.size();
  walk_back(right_, alignment.ops);
  std::reverse(alignment.ops.begin() + static_cast<std::ptrdiff_t>(right_begin),
               alignment.ops.end());
  return alignment;
}

GappedScore gapped_score(const bio::Pssm& pssm,
                         std::span<const std::uint8_t> subject,
                         std::uint32_t qseed, std::uint32_t sseed,
                         const SearchParams& params) {
  return GappedAligner(pssm, params).extend(subject, qseed, sseed);
}

Alignment gapped_traceback(const bio::Pssm& pssm,
                           std::span<const std::uint8_t> subject,
                           std::uint32_t seq_index, std::uint32_t qseed,
                           std::uint32_t sseed, const SearchParams& params) {
  GappedAligner aligner(pssm, params);
  aligner.extend(subject, qseed, sseed);
  return aligner.traceback(seq_index);
}

}  // namespace repro::blast
