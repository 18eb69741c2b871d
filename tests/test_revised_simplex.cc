#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "lp/lp_problem.h"
#include "lp/lu_basis.h"
#include "lp/simplex.h"
#include "lp/sparse_matrix.h"
#include "lp/tableau.h"
#include "util/random.h"

namespace lpb {
namespace {

// The textbook LP used throughout test_lp.cc: max 3x + 5y s.t. x <= 4,
// 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2, 6).
LpProblem Textbook() {
  LpProblem lp(2);
  lp.SetObjective(0, 3.0);
  lp.SetObjective(1, 5.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 4.0);
  lp.AddConstraint({{1, 2.0}}, LpSense::kLe, 12.0);
  lp.AddConstraint({{0, 3.0}, {1, 2.0}}, LpSense::kLe, 18.0);
  return lp;
}

TEST(SimplexTableau, SolveMatchesSolveLp) {
  LpProblem lp = Textbook();
  SimplexTableau tableau(lp);
  LpResult warm_capable = tableau.Solve();
  LpResult one_shot = SolveLp(lp);
  ASSERT_EQ(warm_capable.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm_capable.objective, one_shot.objective, 1e-9);
  EXPECT_EQ(warm_capable.path, LpEvalPath::kCold);
  EXPECT_TRUE(tableau.has_optimal_basis());
  EXPECT_EQ(tableau.basis().size(), 3u);
}

TEST(SimplexTableau, WitnessReuseOnUnchangedBasis) {
  SimplexTableau tableau(Textbook());
  ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal);
  // Scale every RHS up 10%: the same constraints stay binding, so the
  // cached basis is still optimal and the resolve is a pure read-off.
  LpResult r = tableau.ResolveWithRhs({4.4, 13.2, 19.8});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.path, LpEvalPath::kWitness);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_NEAR(r.objective, 36.0 * 1.1, 1e-8);
  // Duals certify the new objective against the new RHS.
  double dual_obj = r.duals[0] * 4.4 + r.duals[1] * 13.2 + r.duals[2] * 19.8;
  EXPECT_NEAR(dual_obj, r.objective, 1e-8);
}

TEST(SimplexTableau, WarmResolveWhenBasisChanges) {
  SimplexTableau tableau(Textbook());
  ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal);
  // Tighten x <= 4 to x <= 1: at the old optimum (2, 6) this constraint is
  // violated, so the cached basis is primal-infeasible and dual-simplex
  // pivots must run. New optimum: x = 1, y = 6 -> 33.
  LpResult r = tableau.ResolveWithRhs({1.0, 12.0, 18.0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.path, LpEvalPath::kWarm);
  EXPECT_GT(r.iterations, 0);
  EXPECT_NEAR(r.objective, 33.0, 1e-8);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 6.0, 1e-9);
}

TEST(SimplexTableau, ResolveWithoutBasisFallsBackToCold) {
  SimplexTableau tableau(Textbook());
  LpResult r = tableau.ResolveWithRhs({4.0, 12.0, 18.0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.path, LpEvalPath::kCold);
  EXPECT_NEAR(r.objective, 36.0, 1e-9);
}

TEST(SimplexTableau, ResolveDetectsInfeasibleRhs) {
  SimplexTableau tableau(Textbook());
  ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal);
  // x <= -1 with x >= 0 is infeasible.
  LpResult r = tableau.ResolveWithRhs({-1.0, 12.0, 18.0});
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
  // The tableau recovers: the original RHS solves again.
  LpResult back = tableau.ResolveWithRhs({4.0, 12.0, 18.0});
  ASSERT_EQ(back.status, LpStatus::kOptimal);
  EXPECT_NEAR(back.objective, 36.0, 1e-8);
}

TEST(SimplexTableau, UnboundedProblemNeverCachesABasis) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 3.0);  // x unconstrained
  SimplexTableau tableau(lp);
  EXPECT_EQ(tableau.Solve().status, LpStatus::kUnbounded);
  EXPECT_FALSE(tableau.has_optimal_basis());
  // Resolve degrades to a cold solve and agrees.
  LpResult r = tableau.ResolveWithRhs({5.0});
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
  EXPECT_EQ(r.path, LpEvalPath::kCold);
}

TEST(SimplexTableau, GeAndEqRowsResolve) {
  // max x + 2y + 3z s.t. x + y + z = 10, x - y >= 2, z <= 4 -> 20.
  LpProblem lp(3);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 2.0);
  lp.SetObjective(2, 3.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, LpSense::kEq, 10.0);
  lp.AddConstraint({{0, 1.0}, {1, -1.0}}, LpSense::kGe, 2.0);
  lp.AddConstraint({{2, 1.0}}, LpSense::kLe, 4.0);
  SimplexTableau tableau(lp);
  ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal);
  for (const std::vector<double>& rhs :
       {std::vector<double>{10.0, 2.0, 4.0}, {12.0, 2.0, 4.0},
        {10.0, 4.0, 1.0}, {8.0, 0.5, 3.0}}) {
    LpResult resolve = tableau.ResolveWithRhs(rhs);
    LpProblem fresh_lp = lp;  // same matrix; solve fresh at this rhs
    SimplexTableau fresh(fresh_lp);
    LpResult cold = fresh.Solve(rhs);
    ASSERT_EQ(resolve.status, cold.status);
    ASSERT_EQ(cold.status, LpStatus::kOptimal);
    EXPECT_NEAR(resolve.objective, cold.objective, 1e-7);
  }
}

// Property test: randomized LPs re-solved at randomized RHS vectors must
// agree with a from-scratch solve — same status, same objective, primal
// feasible, strong duality at the new RHS.
TEST(SimplexTableau, RandomResolvesMatchFromScratch) {
  Rng rng(2024);
  int witness_seen = 0, warm_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(4));
    const int m = 2 + static_cast<int>(rng.Uniform(6));
    LpProblem lp(n);
    for (int j = 0; j < n; ++j) lp.SetObjective(j, rng.NextDouble() * 2.0);
    std::vector<double> rhs(m);
    for (int i = 0; i < m; ++i) {
      std::vector<LpTerm> terms;
      for (int j = 0; j < n; ++j) {
        terms.push_back({j, rng.NextDouble() * 2.0});  // nonneg: bounded
      }
      // Ensure every variable appears with a nonzero coefficient in some
      // row by adding a diagonal boost to row i mod n.
      terms[trial % n].coef += 1.0;
      rhs[i] = 1.0 + 5.0 * rng.NextDouble();
      lp.AddConstraint(std::move(terms), LpSense::kLe, rhs[i]);
    }
    // Box rows so the LP is bounded for every RHS draw.
    for (int j = 0; j < n; ++j) {
      lp.AddConstraint({{j, 1.0}}, LpSense::kLe, 50.0);
      rhs.push_back(50.0);
    }

    SimplexTableau tableau(lp);
    ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal) << "trial " << trial;

    for (int redraw = 0; redraw < 6; ++redraw) {
      std::vector<double> new_rhs = rhs;
      for (int i = 0; i < m; ++i) {
        // Mix small perturbations (witness-friendly) with drastic redraws
        // that force the warm-start fallback.
        new_rhs[i] = redraw % 2 == 0 ? rhs[i] * (0.9 + 0.2 * rng.NextDouble())
                                     : 0.2 + 8.0 * rng.NextDouble();
      }
      LpResult resolve = tableau.ResolveWithRhs(new_rhs);
      LpResult cold = SolveLp([&] {
        LpProblem fresh(n);
        for (int j = 0; j < n; ++j) {
          fresh.SetObjective(j, lp.objective_coef(j));
        }
        for (int i = 0; i < lp.num_constraints(); ++i) {
          fresh.AddConstraint(lp.constraint(i).terms, lp.constraint(i).sense,
                              new_rhs[i]);
        }
        return fresh;
      }());
      ASSERT_EQ(resolve.status, cold.status)
          << "trial " << trial << " redraw " << redraw;
      ASSERT_EQ(resolve.status, LpStatus::kOptimal);
      EXPECT_NEAR(resolve.objective, cold.objective, 1e-6)
          << "trial " << trial << " redraw " << redraw;
      for (int i = 0; i < lp.num_constraints(); ++i) {
        EXPECT_LE(lp.EvalLhs(i, resolve.x), new_rhs[i] + 1e-6)
            << "trial " << trial << " constraint " << i;
      }
      double dual_obj = 0.0;
      for (int i = 0; i < lp.num_constraints(); ++i) {
        dual_obj += resolve.duals[i] * new_rhs[i];
      }
      EXPECT_NEAR(dual_obj, resolve.objective, 1e-5);
      if (resolve.path == LpEvalPath::kWitness) ++witness_seen;
      if (resolve.path == LpEvalPath::kWarm) ++warm_seen;
    }
  }
  // The mix above must exercise both reuse paths, not just cold solves.
  EXPECT_GT(witness_seen, 0);
  EXPECT_GT(warm_seen, 0);
}

// Regression tests for the LpResult failure contract: every early-return
// path (phase-1 infeasible, phase-2 unbounded, iteration limit, and the
// ResolveWithRhs fallbacks into each) must set `status` explicitly and
// size `x`/`duals` — a default-constructed LpResult reads as
// kIterationLimit with empty vectors, and solver paths that forgot to
// overwrite those leaked stale shapes to callers indexing unconditionally.
// Both solvers are held to the contract: the one-shot dense SolveLp and
// the compiled SimplexTableau.
enum class Solver { kOneShot, kCompiled };

class LpFailureContract : public testing::TestWithParam<Solver> {
 protected:
  LpResult Solve(const LpProblem& lp, int max_iterations = 0) {
    SimplexOptions options;
    options.max_iterations = max_iterations;
    if (GetParam() == Solver::kOneShot) return SolveLp(lp, options);
    tableau_.emplace(lp, options);
    return tableau_->Solve();
  }
  // A failed solve must not leave a basis for ResolveWithRhs to reuse.
  void ExpectNoBasis() const {
    if (tableau_.has_value()) {
      EXPECT_FALSE(tableau_->has_optimal_basis());
    }
  }
  static void ExpectSized(const LpResult& r, const LpProblem& lp) {
    EXPECT_EQ(r.x.size(), static_cast<size_t>(lp.num_vars()));
    EXPECT_EQ(r.duals.size(), static_cast<size_t>(lp.num_constraints()));
  }

  std::optional<SimplexTableau> tableau_;
};

TEST_P(LpFailureContract, InfeasibleSolveSizesResult) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kLe, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kGe, 3.0);
  const LpResult r = Solve(lp);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
  ExpectSized(r, lp);
  ExpectNoBasis();
}

TEST_P(LpFailureContract, UnboundedSolveSizesResult) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 3.0);  // x unconstrained
  const LpResult r = Solve(lp);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
  ExpectSized(r, lp);
}

TEST_P(LpFailureContract, IterationLimitSizesResult) {
  // One iteration cannot finish phase 1 of this >=-heavy problem.
  LpProblem lp(3);
  for (int j = 0; j < 3; ++j) lp.SetObjective(j, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 2.0}}, LpSense::kGe, 4.0);
  lp.AddConstraint({{1, 1.0}, {2, 2.0}}, LpSense::kGe, 5.0);
  lp.AddConstraint({{0, 1.0}, {2, 1.0}}, LpSense::kLe, 9.0);
  const LpResult r = Solve(lp, /*max_iterations=*/1);
  EXPECT_EQ(r.status, LpStatus::kIterationLimit);
  ExpectSized(r, lp);
  ExpectNoBasis();
}

TEST_P(LpFailureContract, DefaultResultIsNotSolved) {
  // The guard the contract hangs off: a default LpResult must read as a
  // failure, never as optimal.
  LpResult fresh;
  EXPECT_EQ(fresh.status, LpStatus::kIterationLimit);
  EXPECT_TRUE(fresh.x.empty());
  EXPECT_TRUE(fresh.duals.empty());
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, LpFailureContract,
                         testing::Values(Solver::kOneShot, Solver::kCompiled),
                         [](const testing::TestParamInfo<Solver>& i) {
                           return std::string(i.param == Solver::kOneShot
                                                  ? "one_shot"
                                                  : "compiled");
                         });

TEST(SimplexTableau, ResolveIntoInfeasibleSizesResult) {
  LpProblem lp = Textbook();
  SimplexTableau tableau(lp);
  ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal);
  // x <= -1 with x >= 0: the warm path must fall through to a cold solve
  // that reports infeasible with properly sized vectors — not a stale
  // optimal-shaped result from the cached basis.
  const LpResult r = tableau.ResolveWithRhs({-1.0, 12.0, 18.0});
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
  EXPECT_EQ(r.x.size(), static_cast<size_t>(lp.num_vars()));
  EXPECT_EQ(r.duals.size(), static_cast<size_t>(lp.num_constraints()));
}

// ---------------------------------------------------------------------------
// LuBasis unit tests: the Forrest–Tomlin update against a from-scratch
// refactorization of the updated basis, the unstable-update fallback, and
// the update/fill budgets.

using Scalar = LuBasis::Scalar;

// A deliberately non-trivial 5x5 sparse matrix plus spare columns to pivot
// in: column k of the basis is replaced by spare columns during updates.
SparseMatrix FtTestMatrix() {
  SparseMatrix a(5);
  a.AppendColumn({{0, 2.0}, {2, 1.0}});                       // 0
  a.AppendColumn({{1, 3.0}, {3, -1.0}});                      // 1
  a.AppendColumn({{0, 1.0}, {2, 4.0}, {4, 0.5}});             // 2
  a.AppendColumn({{3, 2.0}, {4, 1.0}});                       // 3
  a.AppendColumn({{1, 1.0}, {4, 3.0}});                       // 4
  a.AppendColumn({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}});   // 5 (spare)
  a.AppendColumn({{2, 2.0}, {3, 1.0}, {4, -2.0}});            // 6 (spare)
  a.AppendColumn({{0, -1.0}, {4, 2.0}});                      // 7 (spare)
  return a;
}

// Reference: factorize the updated basis from scratch and compare solves.
void ExpectSameSolves(LuBasis& updated, const SparseMatrix& a,
                      const std::vector<int>& basis, const char* context) {
  LuBasis fresh;
  ASSERT_TRUE(fresh.Factorize(a, basis)) << context;
  Rng rng(99);
  const int m = static_cast<int>(basis.size());
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Scalar> x(m), y(m);
    for (int i = 0; i < m; ++i) x[i] = y[i] = -1.0 + 2.0 * rng.NextDouble();
    std::vector<Scalar> x2 = x, y2 = y;
    updated.Ftran(x);
    fresh.Ftran(x2);
    updated.Btran(y);
    fresh.Btran(y2);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(static_cast<double>(x[i]), static_cast<double>(x2[i]), 1e-9)
          << context << " ftran slot " << i << " trial " << trial;
      EXPECT_NEAR(static_cast<double>(y[i]), static_cast<double>(y2[i]), 1e-9)
          << context << " btran row " << i << " trial " << trial;
    }
  }
}

// w = B⁻¹ a_col under the current factorization — what the simplex hands
// Update from the entering column's FTRAN image.
std::vector<Scalar> FtranColumn(const LuBasis& lu, const SparseMatrix& a,
                                int col) {
  std::vector<Scalar> w(lu.m(), 0.0);
  for (const SparseEntry* e = a.ColBegin(col); e != a.ColEnd(col); ++e) {
    w[e->row] = e->value;
  }
  lu.Ftran(w);
  return w;
}

TEST(LuBasisForrestTomlin, UpdateMatchesFreshFactorization) {
  SparseMatrix a = FtTestMatrix();
  std::vector<int> basis = {0, 1, 2, 3, 4};
  LuBasis lu;
  ASSERT_TRUE(lu.Factorize(a, basis));

  // Chain three FT updates through different slots (first, middle, last in
  // arbitrary position order); after each, solves must match a fresh
  // factorization of the updated basis bit-for-tolerance.
  const int replacements[][2] = {{2, 5}, {0, 6}, {4, 7}};
  for (const auto& rep : replacements) {
    const int slot = rep[0], col = rep[1];
    const std::vector<Scalar> w = FtranColumn(lu, a, col);
    ASSERT_TRUE(lu.Update(a, col, w, slot)) << "slot " << slot;
    basis[slot] = col;
    ExpectSameSolves(lu, a, basis,
                     ("after replacing slot " + std::to_string(slot)).c_str());
  }
  EXPECT_EQ(lu.update_count(), 3);
  EXPECT_FALSE(lu.NeedsRefactorize());
}

TEST(LuBasisForrestTomlin, UnstableUpdateIsRefusedAndHarmless) {
  SparseMatrix a = FtTestMatrix();
  // Column 8: numerically identical to basis column 0 — replacing any
  // *other* slot with it makes the basis singular, so the FT diagonal
  // collapses and the update must refuse.
  a.AppendColumn({{0, 2.0}, {2, 1.0}});
  std::vector<int> basis = {0, 1, 2, 3, 4};
  LuBasis lu;
  ASSERT_TRUE(lu.Factorize(a, basis));

  const std::vector<Scalar> w = FtranColumn(lu, a, 8);
  EXPECT_NEAR(static_cast<double>(w[0]), 1.0, 1e-12);  // the duplicate
  EXPECT_FALSE(lu.Update(a, 8, w, 3));  // would make B singular
  EXPECT_EQ(lu.update_count(), 0);
  // A refused update must leave the factorization untouched and usable.
  ExpectSameSolves(lu, a, basis, "after refused update");
  // And a legitimate update still goes through afterwards.
  const std::vector<Scalar> w6 = FtranColumn(lu, a, 6);
  ASSERT_TRUE(lu.Update(a, 6, w6, 1));
  basis[1] = 6;
  ExpectSameSolves(lu, a, basis, "after refused-then-accepted");
}

TEST(LuBasisForrestTomlin, UpdateBudgetTripsNeedsRefactorize) {
  SparseMatrix a = FtTestMatrix();
  std::vector<int> basis = {0, 1, 2, 3, 4};
  LuOptions options;
  options.max_updates = 2;
  LuBasis lu(options);
  ASSERT_TRUE(lu.Factorize(a, basis));
  for (int k = 0; k < 2; ++k) {
    const int slot = k == 0 ? 2 : 0;
    const int col = k == 0 ? 5 : 6;
    const std::vector<Scalar> w = FtranColumn(lu, a, col);
    ASSERT_TRUE(lu.Update(a, col, w, slot));
    basis[slot] = col;
  }
  EXPECT_TRUE(lu.NeedsRefactorize());
  // Factorize resets the budget.
  ASSERT_TRUE(lu.Factorize(a, basis));
  EXPECT_FALSE(lu.NeedsRefactorize());
  EXPECT_EQ(lu.update_count(), 0);
}

// The bound-LP shape: homogeneous >= rows (Shannon cuts) whose RHS stays 0
// while only the statistics rows move. The warm path must re-price the RHS
// using only the nonzero entries.
TEST(SimplexTableau, HomogeneousRowsStayZeroAcrossResolves) {
  Rng rng(7);
  const int n = 5;
  LpProblem lp(n);
  lp.SetObjective(n - 1, 1.0);
  std::vector<double> rhs;
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 2.0);
  rhs.push_back(2.0);
  for (int i = 0; i + 1 < n; ++i) {
    lp.AddConstraint({{i, 1.0}, {i + 1, -1.0}}, LpSense::kGe, 0.0);
    rhs.push_back(0.0);
  }
  SimplexTableau tableau(lp);
  ASSERT_EQ(tableau.Solve().status, LpStatus::kOptimal);
  for (double head : {3.0, 1.0, 10.0, 0.5}) {
    rhs[0] = head;
    LpResult r = tableau.ResolveWithRhs(rhs);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_NEAR(r.objective, head, 1e-7);  // chain propagates x0's bound
  }
}

// ---------------------------------------------------------------------------
// Two cached optimal bases. The bound LPs are degenerate, so which optimal
// basis a solve lands on is decided by pricing ties, and two value vectors
// compiled to one matrix can each have optimal bases the other cannot
// use. With one cached basis every alternation is a dual-simplex repair;
// with the basis repaired from kept as a second cache, the first two
// evaluations are cold + warm and every later one is a witness.

void ExpectWitnessAfterTwo(const std::vector<LpEvalPath>& paths,
                           const std::string& context) {
  ASSERT_GT(paths.size(), 2u) << context;
  for (size_t k = 2; k < paths.size(); ++k) {
    EXPECT_EQ(paths[k], LpEvalPath::kWitness)
        << context << ": evaluation " << k;
  }
}

// max x + y s.t. x <= a, y <= b, x + y <= c. At (a,b,c) = (1,3,2) the
// optimal bases are {y,s1,s2} and {x,y,s2}; at (3,1,2) they are {x,s1,s2}
// and {x,y,s1}. No basis is optimal for both, so a single cached basis
// is repaired on every switch whatever the pivot rule.
TEST(SimplexTableau, AlternatingDegeneratePairServesWitnesses) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 1.0);
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 3.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kLe, 2.0);
  SimplexTableau tableau(lp);
  const std::vector<double> rhs[2] = {{1.0, 3.0, 2.0}, {3.0, 1.0, 2.0}};
  std::vector<LpEvalPath> paths;
  for (int k = 0; k < 10; ++k) {
    const LpResult r = tableau.ResolveWithRhs(rhs[k % 2]);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_NEAR(r.objective, 2.0, 1e-9);
    // The point is this RHS's (a basis swapped in must not serve the
    // other one's cached x), and the duals certify the value here.
    const std::vector<double>& b = rhs[k % 2];
    EXPECT_LE(r.x[0], b[0] + 1e-9) << "evaluation " << k;
    EXPECT_LE(r.x[1], b[1] + 1e-9) << "evaluation " << k;
    EXPECT_NEAR(r.x[0] + r.x[1], 2.0, 1e-9) << "evaluation " << k;
    double dual_obj = 0.0;
    for (int i = 0; i < 3; ++i) dual_obj += r.duals[i] * b[i];
    EXPECT_NEAR(dual_obj, r.objective, 1e-9);
    paths.push_back(r.path);
  }
  ExpectWitnessAfterTwo(paths, "x+y pair");
}

// Three right-hand sides on one LP: the basis serving W fails at X and
// the other one serves X, then Y; then X comes again. The first basis,
// now the second cached one, last re-priced at X and failed there, so it
// must not be swapped back in as an exact repeat of X serving W's cached
// point (every optimum at W has y > 1, infeasible at X).
TEST(SimplexTableau, SwappedInBasisNeverServesAnotherRhsPoint) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 0.5);
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 3.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kLe, 2.0);
  SimplexTableau tableau(lp);
  const std::vector<double> w = {0.5, 3.0, 2.0}, x = {3.0, 1.0, 2.0},
                            y = {3.0, 1.5, 2.0};
  for (const std::vector<double>* rhs : {&w, &x, &w, &x, &y, &x, &w}) {
    const LpResult r = tableau.ResolveWithRhs(*rhs);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_LE(r.x[0], (*rhs)[0] + 1e-9);
    EXPECT_LE(r.x[1], (*rhs)[1] + 1e-9);
    EXPECT_NEAR(r.x[0] + r.x[1], 2.0, 1e-9);
  }
}

// The same shape through a compiled normal-engine bound: cardinalities of
// R(X), S(Y), T(X,Y) whose values swap which of X, Y is the small side.
TEST(CompiledBound, AlternatingSyntheticPairServesWitnesses) {
  const auto stat = [](VarSet v, double log_b) {
    ConcreteStatistic s;
    s.sigma = {0, v};
    s.p = 1.0;
    s.log_b = log_b;
    return s;
  };
  const std::vector<ConcreteStatistic> stats = {
      stat(0b01, 1.0), stat(0b10, 3.0), stat(0b11, 2.0)};
  auto compiled = FindBoundEngine("normal")->Compile(StructureOf(2, stats), {});
  const std::vector<double> values[2] = {{1.0, 3.0, 2.0}, {3.0, 1.0, 2.0}};
  std::vector<LpEvalPath> paths;
  for (int k = 0; k < 10; ++k) {
    const BoundResult r = compiled->Evaluate(values[k % 2], false);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.log2_bound, 2.0, 1e-9);
    paths.push_back(r.eval_path);
  }
  ExpectWitnessAfterTwo(paths, "R(X),S(Y),T(X,Y) pair");
}

// The JOB workload compiles 33 templates to 32 structures; the two
// templates sharing one alternate on its compiled bound, which is what a
// template mix does to it. Values must match a cold one-shot solve.
TEST(CompiledBound, AlternatingJobTemplatesServeWitnesses) {
  JobWorkloadOptions options;
  options.scale = 0.05;
  const JobWorkload wl = GenerateJobWorkload(options);
  CardinalityAdvisor advisor(wl.catalog);
  std::map<std::string, std::vector<size_t>> by_structure;
  std::vector<std::vector<ConcreteStatistic>> stats(wl.queries.size());
  for (size_t q = 0; q < wl.queries.size(); ++q) {
    stats[q] = advisor.Explain(wl.queries[q]).stats;
    by_structure[StructureKey(StructureOf(wl.queries[q].num_vars(), stats[q]))]
        .push_back(q);
  }
  int shared = 0;
  for (const auto& [key, templates] : by_structure) {
    if (templates.size() < 2) continue;
    ++shared;
    const size_t a = templates[0], b = templates[1];
    const int n = wl.queries[a].num_vars();
    auto compiled =
        FindBoundEngine("auto")->Compile(StructureOf(n, stats[a]), {});
    std::vector<LpEvalPath> paths;
    for (int k = 0; k < 8; ++k) {
      const size_t q = k % 2 == 0 ? a : b;
      const BoundResult r = compiled->Evaluate(ValuesOf(stats[q]), false);
      ASSERT_TRUE(r.ok());
      EXPECT_NEAR(r.log2_bound, LpNormBound(n, stats[q]).log2_bound, 1e-6)
          << "template " << q;
      paths.push_back(r.eval_path);
    }
    ExpectWitnessAfterTwo(paths, "templates " + std::to_string(a) + "/" +
                                     std::to_string(b));
  }
  EXPECT_GE(shared, 1);
}

}  // namespace
}  // namespace lpb
