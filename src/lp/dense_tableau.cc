#include "lp/dense_tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/solver_common.h"

namespace lpb {
namespace {

constexpr long double kLexEps = 1e-12L;

}  // namespace

DenseTableau::DenseTableau(const LpProblem& problem,
                           const SimplexOptions& options)
    : problem_(problem),
      options_(options),
      kernels_(&GetLpKernels(ResolveSimdMode(options))) {}

void DenseTableau::Build(const std::vector<double>& rhs) {
  const int n = problem_.num_vars();
  rows_ = problem_.num_constraints();

  // Row normalization shared with the revised simplex (lp/solver_common.h):
  // from it we know how many slack and artificial columns are needed.
  NormalizedRows normalized = NormalizeRows(problem_, rhs);
  const std::vector<LpSense>& sense = normalized.sense;
  row_sign_ = std::move(normalized.row_sign);

  first_art_ = n + normalized.num_slack;
  cols_ = first_art_ + normalized.num_art;
  stride_ = cols_ + 1;

  // One flat block from the arena instead of a vector per row.
  arena_.Reset();
  t_ = arena_.AllocArray<Scalar>(static_cast<std::size_t>(rows_) * stride_);
  std::fill(t_, t_ + static_cast<std::size_t>(rows_) * stride_, Scalar{0.0});

  basis_.assign(rows_, kNoCol);
  dual_col_.assign(rows_, kNoCol);

  int next_slack = n;
  int next_art = first_art_;
  for (int i = 0; i < rows_; ++i) {
    const LpConstraint& c = problem_.constraint(i);
    Scalar* row = Row(i);
    for (const LpTerm& term : c.terms) row[term.var] += row_sign_[i] * term.coef;
    row[cols_] = NormalizedRhsEntry(problem_, row_sign_, options_.perturb, i,
                                    rhs);

    switch (sense[i]) {
      case LpSense::kLe: {
        int slack = next_slack++;
        row[slack] = 1.0;
        basis_[i] = slack;
        dual_col_[i] = slack;
        break;
      }
      case LpSense::kGe: {
        int surplus = next_slack++;
        int art = next_art++;
        row[surplus] = -1.0;
        row[art] = 1.0;
        basis_[i] = art;
        dual_col_[i] = art;
        break;
      }
      case LpSense::kEq: {
        int art = next_art++;
        row[art] = 1.0;
        basis_[i] = art;
        dual_col_[i] = art;
        break;
      }
    }
  }

  phase2_cost_.assign(cols_, 0.0);
  for (int j = 0; j < n; ++j) phase2_cost_[j] = problem_.objective_coef(j);
}

void DenseTableau::ComputeReducedCosts(const std::vector<double>& cost) {
  reduced_.assign(cols_, 0.0);
  // reduced = cost - cB' * T. Accumulate row-wise for cache friendliness;
  // each row is one elimination-shaped sweep (reduced[j] -= cb * row[j]).
  for (int i = 0; i < rows_; ++i) {
    const Scalar cb = cost[basis_[i]];
    if (cb == 0.0) continue;
    LpSweepLd(reduced_.data(), Row(i), cb, cols_);
  }
  for (int j = 0; j < cols_; ++j) reduced_[j] += cost[j];
}

void DenseTableau::Pivot(int row, int col) {
  Scalar* prow = Row(row);
  const Scalar p = prow[col];
  const Scalar inv = 1.0L / p;
  LpScaleLd(prow, inv, cols_ + 1);
  prow[col] = 1.0;  // exact
  for (int i = 0; i < rows_; ++i) {
    if (i == row) continue;
    Scalar* r = Row(i);
    const Scalar f = r[col];
    if (f == 0.0) continue;
    LpSweepLd(r, prow, f, cols_ + 1);
    r[col] = 0.0;  // exact
  }
  basis_[row] = col;
}

bool DenseTableau::RunPhase(const std::vector<double>& cost, bool phase_two) {
  const double eps = options_.eps;
  frozen_.assign(cols_, false);
  while (true) {
    if (iterations_ >= max_iterations_) return false;
    // Recompute reduced costs from scratch each iteration: same asymptotic
    // cost as the pivot itself and immune to incremental drift (which
    // produced false unbounded verdicts on the engine's cutting-plane LPs).
    ComputeReducedCosts(cost);

    // Dantzig pricing.
    int enter = kNoCol;
    double best = eps;
    for (int j = 0; j < cols_; ++j) {
      if (phase_two && j >= first_art_) break;  // artificials may not re-enter
      if (frozen_[j]) continue;
      if (reduced_[j] > best) {
        enter = j;
        best = static_cast<double>(reduced_[j]);
      }
    }
    if (enter == kNoCol) return true;  // optimal for this phase

    // Ratio test with lexicographic tie-breaking: guarantees termination
    // on the heavily degenerate cutting-plane LPs (Dantzig/Harris
    // tie-breaks stall for 100k+ iterations there). The tableau is kept in
    // long double because lexicographic pivoting occasionally selects
    // small pivot elements, whose reciprocals amplify rounding error.
    int leave = -1;
    Scalar best_ratio = std::numeric_limits<Scalar>::infinity();
    for (int i = 0; i < rows_; ++i) {
      const Scalar a = Row(i)[enter];
      if (a <= eps) continue;
      const Scalar ratio = Row(i)[cols_] / a;
      if (leave == -1 || ratio < best_ratio - kLexEps) {
        best_ratio = ratio;
        leave = i;
        continue;
      }
      if (ratio > best_ratio + kLexEps) continue;
      // Tie: lexicographic comparison of the rows scaled by their pivot
      // entries, over the slack/artificial block (initially the identity,
      // so rows are lexicographically positive and the classic termination
      // argument applies).
      const Scalar a_leave = Row(leave)[enter];
      for (int j = problem_.num_vars(); j < cols_; ++j) {
        const Scalar d = Row(i)[j] / a - Row(leave)[j] / a_leave;
        if (d < -kLexEps) {
          leave = i;
          best_ratio = ratio;
          break;
        }
        if (d > kLexEps) break;
      }
    }
    if (leave == -1) {
      // Guard against numerically dead columns: all entries ~0 yet a barely
      // positive reduced cost is noise, not a certificate of
      // unboundedness. Freeze the column and move on.
      if (reduced_[enter] <= 1e-6) {
        frozen_[enter] = true;
        continue;
      }
      unbounded_ = true;
      return true;
    }
    Pivot(leave, enter);
    ++iterations_;
    if (phase_two) {
      ++stats_.phase2_pivots;
    } else {
      ++stats_.phase1_pivots;
    }
  }
}

void DenseTableau::EvictArtificials() {
  for (int i = 0; i < rows_; ++i) {
    if (basis_[i] < first_art_) continue;
    // Basic artificial (at value ~0 after a feasible phase 1). Pivot in any
    // non-artificial column with a nonzero entry; if none exists the row is
    // redundant and the artificial stays basic at zero, which is harmless.
    for (int j = 0; j < first_art_; ++j) {
      if (std::abs(static_cast<double>(Row(i)[j])) > options_.eps) {
        Pivot(i, j);
        ++iterations_;
        ++stats_.phase1_pivots;  // artificial eviction is phase-1 cleanup
        break;
      }
    }
  }
}

void DenseTableau::FillKernelStats() {
  for (int k = 0; k < kNumLpKernels; ++k) {
    stats_.kernel_calls[k] =
        g_lp_kernel_counters.calls[k] - kernel_base_.calls[k];
    stats_.kernel_cycles[k] =
        g_lp_kernel_counters.cycles[k] - kernel_base_.cycles[k];
  }
}

LpResult DenseTableau::ExtractOptimal() {
  LpResult result;
  result.status = LpStatus::kOptimal;
  result.iterations = iterations_;
  result.x.assign(problem_.num_vars(), 0.0);
  for (int i = 0; i < rows_; ++i) {
    if (basis_[i] < problem_.num_vars()) {
      result.x[basis_[i]] = static_cast<double>(Row(i)[cols_]);
    }
  }
  result.objective =
      LpDotD(*kernels_, phase2_cost_.data(), result.x.data(),
             problem_.num_vars());
  // Duals: the reduced cost under the +e_i column of constraint i is -y_i.
  ComputeReducedCosts(phase2_cost_);
  result.duals.assign(rows_, 0.0);
  for (int i = 0; i < rows_; ++i) {
    result.duals[i] =
        static_cast<double>(-reduced_[dual_col_[i]]) * row_sign_[i];
  }
  FillKernelStats();
  result.stats = stats_;
  return result;
}

LpResult DenseTableau::Failure(LpStatus status) {
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  FillKernelStats();
  result.stats = stats_;
  // The LpResult contract: x/duals are sized (zeros) even on failure so
  // callers indexing them unconditionally never read stale data.
  result.x.assign(problem_.num_vars(), 0.0);
  result.duals.assign(problem_.num_constraints(), 0.0);
  return result;
}

LpResult DenseTableau::Solve(const std::vector<double>& rhs) {
  stats_ = {};
  kernel_base_ = g_lp_kernel_counters;
  iterations_ = 0;
  Build(rhs);
  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 50 * (rows_ + cols_) + 1000;

  // Phase 1: maximize -sum(artificials), feasible iff optimum is 0.
  if (first_art_ < cols_) {
    std::vector<double> cost(cols_, 0.0);
    for (int j = first_art_; j < cols_; ++j) cost[j] = -1.0;
    if (!RunPhase(cost, /*phase_two=*/false)) {
      return Failure(LpStatus::kIterationLimit);
    }
    Scalar infeas = 0.0;
    for (int i = 0; i < rows_; ++i) {
      if (basis_[i] >= first_art_) infeas += Row(i)[cols_];
    }
    if (infeas > 1e-7) {
      return Failure(LpStatus::kInfeasible);
    }
    EvictArtificials();
  }

  // Phase 2: real objective (artificial costs are zero and they are barred
  // from entering the basis).
  unbounded_ = false;
  if (!RunPhase(phase2_cost_, /*phase_two=*/true)) {
    return Failure(LpStatus::kIterationLimit);
  }
  if (unbounded_) {
    return Failure(LpStatus::kUnbounded);
  }
  return ExtractOptimal();
}

}  // namespace lpb
