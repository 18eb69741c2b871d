// LP solver vocabulary (status, evaluation path, options, per-call
// statistics, results) and the one-shot solver SolveLp.
//
// Two solvers share these types. SolveLp runs a dense long-double tableau
// once, cold: two-phase primal simplex, Dantzig pricing, lexicographic
// ratio test (lp/dense_tableau.h). SimplexTableau (lp/tableau.h) is the
// compile-once / re-price handle the bound engines evaluate through: a
// sparse revised simplex over an LU-factorized basis
// (lp/revised_simplex.h). Dual values for every constraint come back with
// each optimal result — the bound engines use them as the witness
// coefficients w_i of the paper's information inequality (8).
#ifndef LPB_LP_SIMPLEX_H_
#define LPB_LP_SIMPLEX_H_

#include <vector>

#include "lp/lp_problem.h"

namespace lpb {

enum class LpStatus {
  kOptimal,
  kUnbounded,
  kInfeasible,
  kIterationLimit,
};

// How a result was obtained (see lp/tableau.h): a full two-phase solve
// (kCold), dual-simplex pivots from a cached optimal basis (kWarm), or a
// pure read-off of the still-optimal cached basis (kWitness).
enum class LpEvalPath { kCold, kWarm, kWitness };

// Pricing rule of the revised simplex's primal phases (the one-shot dense
// solver behind SolveLp always prices with Dantzig's rule).
//   kDefault — consult LPB_LP_PRICING ("dantzig" or "devex"); dantzig when
//              unset. This is the only value that honors the env var, so
//              tests pinning a rule stay pinned.
//   kDantzig — most positive reduced cost (the original rule).
//   kDevex   — Devex reference-framework pricing: approximate steepest-edge
//              weights updated per pivot, reference frame reset on weight
//              blow-up. Cuts iteration counts on the heavily degenerate
//              cutting-plane relaxations; see src/lp/README.md for the
//              default-flip criteria.
// Wide problems additionally price over a candidate list under either rule
// (partial pricing); see lp/revised_simplex.h.
enum class PricingRule { kDefault, kDantzig, kDevex };

// "dantzig" / "devex"; kDefault renders as "default".
const char* PricingRuleName(PricingRule rule);

// SIMD dispatch of the double-precision LP kernels (lp/kernels.h).
//   kDefault — consult LPB_LP_SIMD ("auto" or "scalar"); auto when unset.
//              Like the other kDefault knobs, this is the only value that
//              honors the env var, so tests pinning a mode stay pinned.
//   kAuto    — use the AVX2+FMA variants when the CPU supports them.
//   kScalar  — force the scalar fallbacks. Bitwise-identical results to
//              kAuto by construction (see lp/kernels.h); this mode exists
//              so CI can prove it.
// The long-double pivot-precision kernels are scalar under every mode —
// x86 SIMD has no long-double lanes.
enum class SimdMode { kDefault, kAuto, kScalar };

// "auto" / "scalar"; kDefault renders as "default".
const char* SimdModeName(SimdMode mode);

// Whether the cutting-plane engines carry the previous round's optimal
// basis across cut-growth rounds (AddConstraintsWarm + dual-simplex repair,
// see lp/tableau.h) instead of rebuilding the tableau and re-solving
// cold from the identity basis.
//   kDefault — consult LPB_LP_CUT_WARM ("0"/"off" disables); on when unset.
//              Like the other kDefault knobs, this is the only value that
//              honors the env var, so tests pinning a mode stay pinned.
//   kOn      — append cut rows warm; fall back to a cold rebuild only when
//              the tableau declines the append (see AddConstraintsWarm).
//   kOff     — always rebuild + cold-solve per round (the pre-PR-7 path).
// Warm and cold converge to the same bound (the cut oracle separates on
// the optimal vertex either way); the knob exists as a correctness
// fallback and for the warm-vs-cold differential tests.
enum class CutWarmStart { kDefault, kOn, kOff };

// "on" / "off"; kDefault renders as "default".
const char* CutWarmStartName(CutWarmStart mode);

// Kernel identifiers for the per-kernel call/cycle table carried by
// LpSolveStats (filled from the thread-local counters of lp/kernels.h).
enum LpKernelId {
  kLpKernelAxpy = 0,      // y[i] = fma(a, x[i], y[i])         (double, SIMD)
  kLpKernelDot,           // 4-accumulator fma dot             (double, SIMD)
  kLpKernelNormalizeRhs,  // out[i] = sign[i]*b[i] + term[i]   (double, SIMD)
  kLpKernelEqual,         // all-equal predicate (IEEE !=)     (double, SIMD)
  kLpKernelGather,        // strided B^-1 column axpy          (long double)
  kLpKernelSweep,         // pivot-row elimination sweep       (long double)
  kLpKernelScale,         // pivot-row normalization           (long double)
  kLpKernelFtranBlock,    // blocked multi-RHS FTRAN           (long double)
  kNumLpKernels,
};

// Short stable name ("axpy_d", "dot_d", ...) used as the JSON key of the
// bench kernel table.
const char* LpKernelName(LpKernelId id);

// Per-call solver statistics, reported on every LpResult and aggregated
// upward into BoundResult::lp_stats and the advisor's AdvisorMetrics. All
// counters cover one logical solver call (a Solve including its internal
// anti-degeneracy rerun, a ResolveWithRhs including any cascade fallback,
// or one column of a batch resolve).
struct LpSolveStats {
  int phase1_pivots = 0;      // primal phase-1 pivots
  int phase2_pivots = 0;      // primal phase-2 pivots
  int dual_pivots = 0;        // dual-simplex (warm repair) pivots
  int refactorizations = 0;   // full LU factorizations after the first
  int ft_updates = 0;         // Forrest–Tomlin in-place U updates taken
  int rejected_updates = 0;   // updates refused (unstable), forcing refactor
  int devex_resets = 0;       // Devex reference-framework resets
  // Warm cut-round accounting (see AddConstraintsWarm in lp/tableau.h).
  int warm_cut_rounds = 0;          // cut rounds served by a warm row append
  int dual_repair_pivots = 0;       // dual pivots spent repairing appended
                                    // rows (a subset of dual_pivots)
  int row_appends = 0;              // rows installed via AddConstraintsWarm
  int append_refactorizations = 0;  // full refactorizations forced by an
                                    // append (fill budget / validation)

  // Per-kernel invocation counts and (when LPB_LP_KERNEL_CYCLES=1 or
  // SetLpKernelCycleTiming(true)) rdtsc cycles for this call, indexed by
  // LpKernelId. Cycles are zero when timing is off — counting is always on,
  // timing costs a serializing timestamp pair per kernel call.
  unsigned long long kernel_calls[kNumLpKernels] = {};
  unsigned long long kernel_cycles[kNumLpKernels] = {};

  int TotalPivots() const {
    return phase1_pivots + phase2_pivots + dual_pivots;
  }
  // Zeroes the pivot counters only. The kernel arrays are rewritten
  // wholesale by the solvers' FillKernelStats on every exit path, so
  // clearing them per batch column (256 bytes) would be pure overhead;
  // use `*this = {}` when the struct escapes without a FillKernelStats.
  void ResetPivots() {
    phase1_pivots = 0;
    phase2_pivots = 0;
    dual_pivots = 0;
    refactorizations = 0;
    ft_updates = 0;
    rejected_updates = 0;
    devex_resets = 0;
    warm_cut_rounds = 0;
    dual_repair_pivots = 0;
    row_appends = 0;
    append_refactorizations = 0;
  }
  void Add(const LpSolveStats& o) {
    phase1_pivots += o.phase1_pivots;
    phase2_pivots += o.phase2_pivots;
    dual_pivots += o.dual_pivots;
    refactorizations += o.refactorizations;
    ft_updates += o.ft_updates;
    rejected_updates += o.rejected_updates;
    devex_resets += o.devex_resets;
    warm_cut_rounds += o.warm_cut_rounds;
    dual_repair_pivots += o.dual_repair_pivots;
    row_appends += o.row_appends;
    append_refactorizations += o.append_refactorizations;
    for (int k = 0; k < kNumLpKernels; ++k) {
      kernel_calls[k] += o.kernel_calls[k];
      kernel_cycles[k] += o.kernel_cycles[k];
    }
  }
};

struct LpResult {
  // NOTE: the default is deliberately a *failure* status. A default-
  // constructed LpResult must never read as solved; every solver path is
  // required to set `status` explicitly and to size `x`/`duals` as
  // documented below even on failure (see tests/test_revised_simplex.cc
  // regression tests).
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  // Primal solution, size = problem.num_vars(). Meaningful when kOptimal;
  // on any other status the solver still sizes it (all zeros) so callers
  // indexing unconditionally cannot read stale or out-of-range data.
  std::vector<double> x;
  // Dual value per constraint, size = problem.num_constraints() (zeros on
  // non-optimal statuses, like `x`).
  // Sign convention: for a <= constraint of a maximization problem the dual
  // is >= 0, for >= it is <= 0; duals satisfy sum_i y_i b_i = objective.
  std::vector<double> duals;
  int iterations = 0;
  // Which evaluation path produced this result (always kCold for SolveLp).
  LpEvalPath path = LpEvalPath::kCold;
  // Which pricing rule the primal phases ran (never kDefault; always
  // kDantzig from SolveLp).
  PricingRule pricing = PricingRule::kDantzig;
  // Pivot / update / refactorization counters for this call.
  LpSolveStats stats;
};

struct SimplexOptions {
  double eps = 1e-9;          // pivot / feasibility tolerance
  int max_iterations = 0;     // 0 = automatic (50 * (rows + cols) + 1000)
  // Optional right-hand-side perturbation (b_i += perturb * (1 + i mod 101)).
  // Degeneracy is handled by the lexicographic ratio test, so this defaults
  // to off; it remains available for experimentation.
  double perturb = 0.0;
  // Pricing rule for SimplexTableau's primal phases (ignored by SolveLp,
  // which always runs Dantzig). kDefault reads LPB_LP_PRICING and falls
  // back to Dantzig; set kDantzig/kDevex to pin.
  PricingRule pricing = PricingRule::kDefault;
  // Forrest–Tomlin basis updates carried between full refactorizations
  // (SimplexTableau). 0 = automatic: 64. The fill budget in lp/lu_basis.h
  // can force an earlier refactorization.
  int max_basis_updates = 0;
  // SIMD dispatch of the double-precision kernels (lp/kernels.h). kDefault
  // reads LPB_LP_SIMD and falls back to kAuto; results are bit-identical
  // under every mode, so this is a pure performance/debugging knob.
  SimdMode simd = SimdMode::kDefault;
  // Warm-started cut rounds in the cutting-plane engines (see the enum
  // above). kDefault reads LPB_LP_CUT_WARM and falls back to on.
  CutWarmStart cut_warm_start = CutWarmStart::kDefault;
};

// Solves the LP once, cold, on the dense long-double tableau
// (lp/dense_tableau.h). The problem is copied; `problem` is not modified.
// This is the one-shot solver behind the one-shot bound entry points and
// the independent reference the compiled path is tested against; callers
// that re-solve one matrix at many right-hand sides hold a SimplexTableau
// (lp/tableau.h) instead.
LpResult SolveLp(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace lpb

#endif  // LPB_LP_SIMPLEX_H_
