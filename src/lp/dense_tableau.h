// Dense long-double tableau: the one-shot cold solver behind SolveLp.
//
// Two-phase primal simplex with Dantzig pricing and a lexicographic ratio
// test on an explicit rows x cols tableau kept in long double
// (lexicographic pivoting occasionally selects tiny pivot elements whose
// reciprocals amplify rounding error). Every pivot sweeps the whole
// tableau, so cost per iteration is O(rows x cols) — fine for one solve,
// which is all this class does: it has no cached basis and no re-solve
// path. Repeated solves of one matrix go through SimplexTableau
// (lp/tableau.h, the sparse revised simplex of lp/revised_simplex.h); the
// dense solver stays as the independent reference that path is checked
// against (tests/test_simplex_differential.cc) and as the solver of the
// one-shot bound entry points.
//
// The tableau lives in a per-instance Arena as one flat rows x (cols+1)
// block (util/arena.h), and the inner loops run through the kernel layer
// (lp/kernels.h) so they show up in the per-kernel call/cycle table of
// LpSolveStats.
#ifndef LPB_LP_DENSE_TABLEAU_H_
#define LPB_LP_DENSE_TABLEAU_H_

#include <vector>

#include "lp/kernels.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/arena.h"

namespace lpb {

class DenseTableau {
 public:
  explicit DenseTableau(const LpProblem& problem,
                        const SimplexOptions& options = {});

  // Cold two-phase solve; empty `rhs` uses the problem's own right-hand
  // sides.
  LpResult Solve(const std::vector<double>& rhs = {});

 private:
  using Scalar = long double;

  static constexpr int kNoCol = -1;

  void Build(const std::vector<double>& rhs);
  // Runs one primal simplex phase on `cost`; returns false on iteration
  // limit. Sets unbounded_ if a ray is detected (meaningful in phase 2).
  bool RunPhase(const std::vector<double>& cost, bool phase_two);
  void ComputeReducedCosts(const std::vector<double>& cost);
  void Pivot(int row, int col);
  // After phase 1: pivot basic artificials out where possible.
  void EvictArtificials();
  LpResult ExtractOptimal();
  // Non-optimal result with x/duals sized per the LpResult contract.
  LpResult Failure(LpStatus status);
  // Copies this call's kernel-counter deltas into stats_ (see
  // lp/kernels.h); called on every exit path.
  void FillKernelStats();

  // Row i of the flat tableau (stride_ = cols_ + 1 entries per row).
  Scalar* Row(int i) { return t_ + static_cast<std::size_t>(i) * stride_; }
  const Scalar* Row(int i) const {
    return t_ + static_cast<std::size_t>(i) * stride_;
  }

  LpProblem problem_;
  SimplexOptions options_;
  const LpKernels* kernels_;  // dispatch table per SimplexOptions::simd

  int rows_ = 0;
  int cols_ = 0;        // total variable columns (structural+slack+artificial)
  int first_art_ = 0;   // first artificial column index
  int stride_ = 0;      // cols_ + 1 (row length incl. the RHS column)
  Arena arena_;
  Scalar* t_ = nullptr;  // flat rows_ x stride_ tableau in arena_
  std::vector<int> basis_;              // basic column per row
  std::vector<Scalar> reduced_;         // reduced costs, size cols_
  // For each original constraint: the column whose original A-column is
  // +e_i (slack for LE, artificial for GE/EQ) and the row sign applied
  // during normalization. The reduced cost under column dual_col_[i] is
  // therefore -y_i for the normalized row.
  std::vector<int> dual_col_;
  std::vector<double> row_sign_;
  std::vector<double> phase2_cost_;     // structural objective, padded to cols_

  int iterations_ = 0;
  int max_iterations_ = 0;
  bool unbounded_ = false;
  // Columns disabled for the current phase (numerically dead, see RunPhase).
  std::vector<bool> frozen_;
  // Pivot counters of this solve (only the phase fields are ever nonzero:
  // the tableau has no factorization) plus the kernel table.
  LpSolveStats stats_;
  // Thread-local kernel counters at the start of Solve; FillKernelStats
  // reports the delta.
  LpKernelCounters kernel_base_;
};

}  // namespace lpb

#endif  // LPB_LP_DENSE_TABLEAU_H_
