#include "bounds/normal_engine.h"

#include <cassert>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "relation/degree_sequence.h"

namespace lpb {

LpProblem BuildNormalBoundLp(int n,
                             const std::vector<ConcreteStatistic>& stats) {
  const VarSet full = FullSet(n);
  const int num_vars = static_cast<int>(full);  // α_W for W = 1 .. full

  // maximize Σ_W α_W  (h_W(X) = 1 for every nonempty W)
  LpProblem lp(num_vars);
  for (int w = 0; w < num_vars; ++w) lp.SetObjective(w, 1.0);

  // Per statistic: Σ_W α_W · [ (1/p)·1{W∩U≠∅} + 1{W∩V≠∅ ∧ W∩U=∅} ] <= log_b.
  for (const ConcreteStatistic& stat : stats) {
    const double inv_p = (stat.p >= kInfNorm / 2) ? 0.0 : 1.0 / stat.p;
    std::vector<LpTerm> terms;
    for (VarSet w = 1; w <= full; ++w) {
      double coef = 0.0;
      if (Intersects(w, stat.sigma.u)) {
        coef += inv_p;
      } else if (Intersects(w, stat.sigma.v)) {
        coef += 1.0;
      }
      if (coef != 0.0) terms.push_back({static_cast<int>(w) - 1, coef});
    }
    lp.AddConstraint(std::move(terms), LpSense::kLe, stat.log_b);
  }
  return lp;
}

NormalBoundResult NormalPolymatroidBound(
    int n, const std::vector<ConcreteStatistic>& stats, bool require_simple,
    const SimplexOptions& simplex) {
  assert(n >= 1 && n <= kMaxVars);
  if (require_simple) assert(AllSimple(stats));
  const VarSet full = FullSet(n);
  const int num_vars = static_cast<int>(full);  // α_W for W = 1 .. full

  LpResult lp_result = SolveLp(BuildNormalBoundLp(n, stats), simplex);
  NormalBoundResult result;
  result.base.status = lp_result.status;
  result.base.lp_iterations = lp_result.iterations;
  result.base.lp_pricing = lp_result.pricing;
  result.base.lp_stats = lp_result.stats;
  if (lp_result.status == LpStatus::kUnbounded) {
    result.base.log2_bound = kInfNorm;
    return result;
  }
  if (lp_result.status != LpStatus::kOptimal) return result;

  result.base.log2_bound = lp_result.objective;
  result.base.weights = lp_result.duals;
  result.alpha.assign(num_vars + 1, 0.0);
  for (int w = 0; w < num_vars; ++w) result.alpha[w + 1] = lp_result.x[w];
  result.base.h_opt = SetFunction::NormalCombination(n, result.alpha);
  return result;
}

BoundResult LpNormBound(int n, const std::vector<ConcreteStatistic>& stats,
                        const EngineOptions& options) {
  if (AllSimple(stats)) {
    return NormalPolymatroidBound(n, stats, /*require_simple=*/true,
                                  options.simplex)
        .base;
  }
  return PolymatroidBound(n, stats, options);
}

}  // namespace lpb
