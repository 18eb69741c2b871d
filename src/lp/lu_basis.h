// LU-factorized simplex basis with Forrest–Tomlin updates.
//
// Maintains B = [A[:, basis[0]], ..., A[:, basis[m-1]]] in factored form,
// supporting the two solves every revised-simplex iteration needs:
//   FTRAN  x = B⁻¹ b   (entering-column transform, basic values)
//   BTRAN  y = B⁻ᵀ y   (duals / pricing, B⁻¹ rows for the ratio test)
//
// Factorization is Gilbert–Peierls left-looking sparse LU: each basis
// column is transformed by a sparse triangular solve whose nonzero pattern
// comes from a DFS over the partially built L, so work is proportional to
// arithmetic actually performed. Pivoting is Markowitz-style threshold
// pivoting — among candidate rows whose magnitude is within rel_pivot_tol
// of the column max, prefer the row with the smallest static Markowitz
// degree (its nonzero count in the basis matrix) — and columns are
// pre-ordered by increasing nonzero count, so unit slack/artificial
// columns (the bulk of early bases) factor in O(1) with zero fill.
//
// Storage is permutation-invariant: L is kept in its fixed factorization
// sequence (a product of column transforms, never reordered), U is stored
// by *basis slot* with entries referencing *original rows*, and the
// triangular order lives in separate position maps (pivot_row_/col_slot_
// and their inverses). A basis update therefore only rotates the position
// maps — no stored index is ever relabeled.
//
// Basis changes apply a Forrest–Tomlin update: the entering
// column's spike (its image under L and the prior updates) replaces the
// leaving column of U, the leaving position is cycled to the end, and the
// now-bottom row of U is eliminated by a sparse triangular solve whose
// multipliers are recorded as one row transform applied inside every later
// FTRAN/BTRAN. U stays genuinely triangular in place, so update chains run
// long (max_updates, default 64) before a refactorization. Two guards
// force an early refactorization:
//   * stability — the new diagonal must clear an absolute and a
//     spike-relative threshold, and must agree with the value predicted
//     from the ratio-test pivot (u_new = u_pp · w_r in exact arithmetic);
//     disagreement means the factors have drifted. A failed test leaves
//     the factorization untouched and returns false so the caller
//     refactorizes against the updated basis header.
//   * fill — the update appends the spike to U and the multipliers to the
//     transform list; when their combined nonzeros exceed fill_limit ×
//     the freshly factored size, NeedsRefactorize() trips.
//
// All factors and solves are kept in long double, for the same reason the
// dense tableau is (lp/dense_tableau.h): the lexicographic ratio test
// legitimately pivots on tiny elements, and in plain double the FTRAN
// image of a *true zero* (noise ~ cond(B)·u) becomes indistinguishable
// from such a pivot — which is how degenerate solves go off the rails.
#ifndef LPB_LP_LU_BASIS_H_
#define LPB_LP_LU_BASIS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lp/sparse_matrix.h"

namespace lpb {

struct LuOptions {
  double abs_pivot_tol = 1e-11;  // reject pivots below this outright
  double rel_pivot_tol = 0.1;    // threshold for Markowitz tie candidates
  // Updates carried between refactorizations. 0 = automatic: 64.
  int max_updates = 0;
  // FT stability: the new diagonal must be at least ft_rel_tol × ||spike||∞
  // and must agree with the pivot-predicted value to ft_agree_tol
  // (relative). Failing either refuses the update (caller refactorizes).
  double ft_rel_tol = 1e-7;
  double ft_agree_tol = 1e-6;
  // Refactorize when U-plus-transform nonzeros exceed this multiple of the
  // freshly factored nonzero count (bounded fill).
  double fill_limit = 3.0;
};

class LuBasis {
 public:
  // Working precision of factors and solves (see file comment).
  using Scalar = long double;

  explicit LuBasis(LuOptions options = {});

  // Factorizes the basis columns of `a`. Returns false if the basis is
  // numerically singular (no acceptable pivot in some column); the
  // factorization is then unusable until the next successful Factorize.
  bool Factorize(const SparseMatrix& a, const std::vector<int>& basis);

  bool factorized() const { return factorized_; }
  int m() const { return m_; }
  // Forrest–Tomlin updates absorbed since the last Factorize.
  int update_count() const { return updates_; }
  bool NeedsRefactorize() const {
    return updates_ >= max_updates_ ||
           static_cast<double>(u_nnz_ + transform_nnz_) >
               options_.fill_limit * static_cast<double>(u_nnz0_ + m_);
  }

  // x := B⁻¹ x. In: x indexed by constraint row. Out: x indexed by basis
  // slot (x[i] is the value of basic variable basis[i]). When `spike_out`
  // is non-null it receives the row-indexed intermediate after the L pass
  // and the Forrest–Tomlin transforms, before the U backsolve — exactly
  // the spike a subsequent Update of this column needs, saving Update the
  // duplicate forward solve (pass it via Update's `spike` parameter; it
  // is only valid while the factorization is unchanged).
  void Ftran(std::vector<Scalar>& x,
             std::vector<Scalar>* spike_out = nullptr) const;

  // Blocked multi-RHS FTRAN: solves `lanes` (≤ kMaxFtranBlockLanes)
  // right-hand sides at once, laid out lane-interleaved — element i of
  // lane l at x[i * lanes + l] — so each L/U entry's metadata is loaded
  // once and applied across all lanes from one cache line. Every lane is
  // bitwise-identical to a sequential Ftran of that lane alone: the
  // per-lane operation order is unchanged (only the interleaving across
  // independent lanes differs), including the skip-on-exact-zero guards.
  // No spike capture — the block path is for B⁻¹ column materialization
  // (lp/revised_simplex.cc), not for pivoting.
  static constexpr int kMaxFtranBlockLanes = 8;
  void FtranBlock(Scalar* x, int lanes) const;

  // y := B⁻ᵀ y. In: y indexed by basis slot (e.g. the basic costs).
  // Out: y indexed by constraint row (e.g. the duals). Btran(e_slot)
  // yields row `slot` of B⁻¹ — the ratio test's lexicographic tie-break.
  void Btran(std::vector<Scalar>& y) const;

  // Bordered growth for the warm cut-append path (lp/revised_simplex.h):
  // extends the factorization of B to
  //     B_new = [[B, 0], [C, D]]
  // where the caller has already grown `a` by the new rows (C = the new
  // rows' coefficients on the old basic columns) and appended one unit
  // slack column per new row to both `a` and `basis` (D = their diagonal).
  // The new rows become the *leading* positions of the triangular order —
  // their U columns are pure diagonals and the old columns' new-row
  // entries (C) append to their stored U columns, which keeps U
  // position-triangular without touching L, the Forrest–Tomlin transforms,
  // or any existing entry. Appended U entries count toward the fill budget
  // (NeedsRefactorize), which is what eventually forces a clean
  // refactorization on long append chains.
  //
  // Preconditions checked (returns false leaving the factorization
  // untouched, so the caller can refactorize instead): a successful
  // Factorize is live (Forrest–Tomlin transforms commute with the
  // border), `first_new_row` == m(), and each appended basis column is a unit
  // column on exactly one new row with a pivotable diagonal, the new rows
  // covered exactly once.
  bool AppendBorderedRows(const SparseMatrix& a, const std::vector<int>& basis,
                          int first_new_row);

  // Records the basis change "column of slot r replaced by column `col` of
  // `a`, whose FTRAN image is w", rewriting U in place. An optional
  // `spike` — the intermediate captured by Ftran(x, &spike) for
  // this very column under this very factorization — skips the update's
  // own forward solve. Returns false — leaving the factorization
  // unchanged — when the update would be numerically unstable; the caller
  // must refactorize against the updated basis header instead.
  bool Update(const SparseMatrix& a, int col, const std::vector<Scalar>& w,
              int r, const std::vector<Scalar>* spike = nullptr);

 private:
  struct LuEntry {
    int row = 0;
    Scalar value = 0.0;
  };

  LuOptions options_;
  int max_updates_ = 0;  // resolved from options_.max_updates
  bool factorized_ = false;
  int m_ = 0;
  int updates_ = 0;

  // Position maps, mutated by FT updates (a cyclic left-rotation of the
  // replaced position to the end). pivot_row_[k] = original row pivotal at
  // position k; row_pos_ its inverse. col_slot_[k] = basis slot at
  // position k; slot_pos_ its inverse.
  std::vector<int> pivot_row_;
  std::vector<int> row_pos_;
  std::vector<int> col_slot_;
  std::vector<int> slot_pos_;

  // L (unit diagonal) as a product of column transforms in the fixed
  // factorization sequence: l_cols_[k] holds (original row, multiplier)
  // strictly below pivot row l_pivot_row_[k]. Never reordered by updates.
  std::vector<std::vector<LuEntry>> l_cols_;
  std::vector<int> l_pivot_row_;

  // U stored by basis slot: off-diagonal entries (original row, value) at
  // rows pivotal earlier in position order, plus the diagonal diag_[slot].
  std::vector<std::vector<LuEntry>> u_cols_;
  std::vector<Scalar> diag_;
  int64_t u_nnz_ = 0;           // current off-diagonal U entries
  int64_t u_nnz0_ = 0;          // off-diagonal U entries at Factorize
  int64_t transform_nnz_ = 0;   // FT-row-transform entries

  // One Forrest–Tomlin row transform R = I - e_row μᵀ (row space): applied
  // oldest-first inside FTRAN after the L pass, newest-first transposed
  // inside BTRAN before the Lᵀ pass.
  struct FtEta {
    int row = 0;
    std::vector<LuEntry> mu;
  };
  std::vector<FtEta> ft_etas_;

  // Scratch for Factorize/Ftran/Btran/Update (single-threaded per
  // instance, like the CompiledBound that owns the tableau).
  mutable std::vector<Scalar> work_;
  mutable std::vector<Scalar> pos_work_;
  mutable std::vector<Scalar> block_pos_work_;  // FtranBlock, m_ x lanes
  mutable std::vector<Scalar> spike_;    // FT spike, row-indexed
  mutable std::vector<Scalar> mu_work_;  // FT multipliers, row-indexed
  mutable std::vector<LuEntry> mu_entries_;
  mutable std::vector<std::pair<int, int>> row_hits_;  // (slot, entry index)
  mutable std::vector<char> visited_;
  mutable std::vector<std::pair<int, int>> dfs_stack_;  // (position, edge idx)
  mutable std::vector<int> topo_;
  mutable std::vector<int> cand_;      // non-pivotal rows touched this column
  mutable std::vector<int> row_mark_;  // dedup stamps for cand_
};

}  // namespace lpb

#endif  // LPB_LP_LU_BASIS_H_
