// Compile-once / solve-many simplex handle.
//
// SimplexTableau splits the LP lifecycle that SolveLp() fuses: the
// constraint *matrix* and objective are fixed at construction ("compile"),
// while the right-hand side is a parameter of each solve. This matches the
// bound LPs of the paper exactly — Eq. (36)'s matrix depends only on the
// query structure and the statistic shapes, and the concrete ℓp-norm values
// log_b enter solely through the RHS — so a query template is compiled once
// and re-evaluated per statistics snapshot.
//
// Three evaluation paths, cheapest first (LpResult::path reports which ran):
//   * kWitness — an optimal basis cached by an earlier solve is still
//     primal-feasible at the new RHS. Since the matrix and objective are
//     unchanged, the basis is still dual-feasible by construction, so the
//     result is read off the cached factorization with zero pivots: the new
//     basic solution is B⁻¹b' (only the nonzero RHS entries contribute) and
//     the duals — the paper's witness weights w_i — are unchanged. Two
//     optimal bases are cached (the live one and the one the last warm
//     re-solve repaired from), so two value vectors that alternate on one
//     compiled matrix are both served here (see lp/revised_simplex.h).
//   * kWarm — the cached basis went primal-infeasible; dual-simplex pivots
//     restore feasibility starting from the still-dual-feasible basis,
//     typically in a handful of iterations for small RHS perturbations.
//   * kCold — no cached basis (first solve, or the previous solve did not
//     end optimal), or the warm path failed; full two-phase primal simplex.
//
// SimplexTableau is the sparse revised simplex with an LU-factorized basis
// (lp/revised_simplex.h, where each entry point is documented). The
// one-shot SolveLp (lp/simplex.h) is a separate dense tableau that solves
// cold only; the differential harness checks this class against it. See
// src/lp/README.md.
#ifndef LPB_LP_TABLEAU_H_
#define LPB_LP_TABLEAU_H_

#include "lp/revised_simplex.h"

namespace lpb {

using SimplexTableau = RevisedSimplex;

}  // namespace lpb

#endif  // LPB_LP_TABLEAU_H_
