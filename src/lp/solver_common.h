// Pieces shared by the two LP solvers: the one-shot dense tableau behind
// SolveLp (lp/dense_tableau.h) and the compile-once revised simplex behind
// SimplexTableau (lp/revised_simplex.h, lp/tableau.h).
//
// The row normalization lives here because the differential harness
// (tests/test_simplex_differential.cc) checks the revised simplex against
// dense cold solves, and that comparison depends on both solvers applying
// the *identical* transformation. The kDefault-resolving functions read
// the environment knobs of lp/simplex.h.
#ifndef LPB_LP_SOLVER_COMMON_H_
#define LPB_LP_SOLVER_COMMON_H_

#include <vector>

#include "lp/lp_problem.h"
#include "lp/simplex.h"

namespace lpb {

// Row normalization shared by both solvers. Rows are flipped when the RHS
// is negative, and also when a >= row has RHS 0: the flipped row is a <=
// row whose slack gives a feasible basis, avoiding an artificial variable
// entirely (the common case for the engines' homogeneous Shannon cuts).
struct NormalizedRows {
  std::vector<LpSense> sense;     // per row, post-flip
  std::vector<double> row_sign;   // +1 / -1 per row
  int num_slack = 0;              // slack/surplus columns needed
  int num_art = 0;                // artificial columns needed
};
NormalizedRows NormalizeRows(const LpProblem& problem,
                             const std::vector<double>& rhs);

// The normalized RHS entry of row i: the row sign applied to the caller's
// value (empty `rhs` = the problem's own) plus the graded perturbation.
double NormalizedRhsEntry(const LpProblem& problem,
                          const std::vector<double>& row_sign, double perturb,
                          int i, const std::vector<double>& rhs);

// Resolves kDefault against LPB_LP_PRICING ("dantzig" / "devex"; anything
// else falls back to dantzig). Never returns kDefault.
PricingRule ResolveLpPricing(const SimplexOptions& options);

// Resolves kDefault against LPB_LP_SIMD ("auto" / "scalar"; anything else
// falls back to auto). Never returns kDefault.
SimdMode ResolveSimdMode(const SimplexOptions& options);

// Resolves kDefault against LPB_LP_CUT_WARM ("0" / "off" disable; anything
// else — including unset — enables). Never returns kDefault.
CutWarmStart ResolveCutWarmStart(const SimplexOptions& options);

}  // namespace lpb

#endif  // LPB_LP_SOLVER_COMMON_H_
