#include "lp/simplex.h"

#include "lp/dense_tableau.h"

namespace lpb {

LpResult SolveLp(const LpProblem& problem, const SimplexOptions& options) {
  return DenseTableau(problem, options).Solve();
}

}  // namespace lpb
