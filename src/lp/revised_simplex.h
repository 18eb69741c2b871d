// Sparse revised simplex over an LU-factorized basis.
//
// The compile-once solver, named SimplexTableau at its call sites
// (lp/tableau.h). Solves the same normalized standard form as the one-shot
// dense tableau (lp/dense_tableau.h) — maximize c'x over
// Ax {<=,>=,=} b, x >= 0, rows sign-normalized, slack/surplus/artificial
// columns appended — but never materializes B⁻¹A. Each iteration does three sparse solves against the
// factorized basis (lp/lu_basis.h):
//
//   BTRAN  y = B⁻ᵀ c_B                duals; reduced cost of column j is
//                                     c_j - y·A_j, an O(nnz(A_j)) dot
//   FTRAN  w = B⁻¹ A_enter            the pivot column, for the ratio test
//   update B := B'                    Forrest–Tomlin in-place U rewrite
//
// so an iteration costs O(nnz(A) + m + update work) instead of the dense
// tableau's O(rows x cols) sweep — the difference between grinding and
// finishing on the cutting-plane Γn relaxations past n ≈ 7.
//
// Pricing is selectable (SimplexOptions::pricing / LPB_LP_PRICING):
// Dantzig's most-positive-reduced-cost rule, or Devex reference-framework
// pricing — approximate steepest-edge weights γ_j ≈ ‖B⁻¹A_j‖² maintained
// per pivot from the pivot row (one extra BTRAN + sparse dots), entering
// column argmax d_j²/γ_j, and a full reference reset when the weights blow
// up. Devex pays ~2x per-iteration pricing cost to cut the *number* of
// iterations on the heavily degenerate cutting-plane relaxations, where
// Dantzig burns hundreds of zero-step pivots per cut round. On wide
// problems (cols ≥ kPartialPricingMinCols) both rules additionally price
// over a candidate list: a full sweep ranks the eligible columns and keeps
// the best few dozen, later iterations re-price only those, and the next
// full sweep runs when the list goes dry — optimality is only ever
// declared by a full sweep.
//
// Anti-cycling: the ratio test breaks ties lexicographically on the rows
// of [B⁻¹b | B⁻¹], exactly the invariant the dense solver maintains over
// its slack/artificial block (tied rows are materialized on demand with a
// unit BTRAN). The starting basis is the identity, so rows begin
// lexicographically positive and the classic termination argument applies
// to both solvers alike.
//
// Warm re-solves run a cascade: FTRAN re-prices the new RHS under the
// cached factorization (witness); if that basis is primal-infeasible
// there, the second cached optimal basis is tried the same way (witness);
// dual simplex repairs primal infeasibility from a still-dual-feasible
// basis (warm); and anything the factorizations cannot represent falls
// back to a cold two-phase solve.
//
// Why two cached bases: the bound LPs are primal and dual degenerate, so
// one right-hand side has many optimal bases, and which one a solve lands
// on is decided by pricing ties. Two value vectors that share a structure
// (two query templates compiled to one bound) then flip-flop: the dual
// simplex repairs the basis of one into an optimal basis of the other
// that is infeasible for the first, every time. A basis optimal for both
// may exist, but no pivot rule finds it reliably — the dense tableau
// happened to land on one for the JOB pair only because of how it breaks
// Dantzig ties, and with the opposite tie-break it flip-flops too. So the
// warm path keeps the basis it repairs *from* as a second cached basis
// (least-recently-used replacement over the two), which serves any
// alternation of two value vectors from a witness after the first repair.
//
// Hot-path layout (this is the backend the batch estimate regime runs):
// the RHS normalization, the B⁻¹ column memo, and the incremental
// re-pricing deltas are double-precision kernels (lp/kernels.h) over
// arena-backed scratch (util/arena.h) — NormalizedRhsEntry always computed
// in double, so nothing is lost — while every pivot-decision quantity
// (FTRAN/BTRAN images, ratio tests, basic values) stays long double. All
// solver exits write into a caller-owned LpResult, so a batch loop reuses
// one result vector and its x/duals capacity instead of re-allocating per
// column.
#ifndef LPB_LP_REVISED_SIMPLEX_H_
#define LPB_LP_REVISED_SIMPLEX_H_

#include <span>
#include <utility>
#include <vector>

#include "lp/kernels.h"
#include "lp/solver_common.h"
#include "lp/lp_problem.h"
#include "lp/lu_basis.h"
#include "lp/simplex.h"
#include "lp/sparse_matrix.h"
#include "util/arena.h"

namespace lpb {

class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LpProblem& problem,
                          const SimplexOptions& options = {});

  // Copies `problem` and compiles its column layout and row normalization
  // on the first solve; the matrix and objective are fixed from here on,
  // the RHS is a parameter of each solve (lp/tableau.h).
  int num_constraints() const { return problem_.num_constraints(); }

  // Cold two-phase solve. `rhs` (size num_constraints) overrides the
  // problem's right-hand sides; empty uses the problem's own. On an
  // optimal finish the final basis is cached for ResolveWithRhs.
  LpResult Solve(const std::vector<double>& rhs = {});
  // Warm re-solve against a new RHS through the witness / warm / cold
  // cascade of lp/tableau.h. Behaves like Solve(rhs) when no basis is
  // cached.
  LpResult ResolveWithRhs(const std::vector<double>& rhs);
  // Multi-RHS resolve: every column flows through the one cached LU
  // factorization (an incremental re-price or FTRAN per column, no
  // per-column rebuild), witness validation is per column, and the
  // cost-row BTRAN is shared — the cached duals serve every witness-valid
  // column in the block. A column whose basis goes stale runs the scalar
  // dual-simplex/cold cascade, and the columns after it continue against
  // the updated factorization, keeping results identical to sequential
  // ResolveWithRhs calls. Results land in `out` (fully overwritten), so a
  // caller looping over batches reuses the element capacity.
  void ResolveWithRhsBatch(std::span<const std::vector<double>> rhs_batch,
                           std::vector<LpResult>& out);
  // Order-relaxed block resolve: a witness-only first pass against the
  // pinned live basis and then the pinned second cached basis — no
  // pivots, so the B⁻¹-column memo and the incremental re-price baseline
  // survive the whole pass — then the deferred stale columns run the
  // scalar cascade in their original order. Same objective values and
  // statuses as ResolveWithRhsBatch, but not bitwise identical to the
  // scalar sequence; used by the cutting-plane batch path, whose parity
  // contract is tolerance, not bits (bounds/bound_engine.h).
  void ResolveWithRhsBatchRelaxed(
      std::span<const std::vector<double>> rhs_batch,
      std::vector<LpResult>& out);
  // Incremental row append on top of the cached optimal basis (the
  // cutting-plane growth path). The new rows join the sparse matrix via
  // SparseMatrix::AppendRows with their slacks basic — the previous
  // optimum keeps its duals, so the extended basis is dual feasible by
  // construction — and the LU factorization grows by bordered slack
  // columns (LuBasis::AppendBorderedRows), refactorizing only when the
  // bordered growth is refused or the fill budget trips. Dual simplex then
  // repairs the rows the previous optimum violates. `rhs` is the full new
  // RHS including the appended rows. Returns false, with the solver
  // untouched, when there is no cached optimal basis, an artificial column
  // exists, or a new row does not normalize to a slack-feasible <= row;
  // the caller must then recompile and solve cold. On success the result
  // has path kWarm (or kCold if the repair fell back to a cold solve of
  // the grown problem). Callers that keep their own LpProblem (for a later
  // cold rebuild) must mirror the append there themselves.
  bool AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                          const std::vector<double>& rhs,
                          LpResult& result);
  // True after a solve that ended kOptimal: ResolveWithRhs can warm-start.
  bool has_optimal_basis() const { return has_basis_; }
  // Basic column index per row of the live cached basis (internal column
  // ids: structural columns first, then slack/surplus, then artificial).
  const std::vector<int>& basis() const { return live_.basis; }

 private:
  // Working precision, matching LuBasis::Scalar and the dense tableau (the
  // lexicographic ratio test needs a noise floor far below its pivot
  // eligibility threshold; double's is not).
  using Scalar = long double;

  static constexpr int kNoCol = -1;
  // Degenerate (zero-step) pivots tolerated before the phase falls back
  // from Dantzig/Devex + lexicographic to Bland's rule (see RunPhase).
  static constexpr int kBlandStallThreshold = 100;
  // Base magnitude of the internal anti-degeneracy RHS perturbation
  // (graded per row, removed exactly by the cleanup pass in SolveCore).
  static constexpr double kAntiDegeneracyEps = 1e-7;
  // Candidate-list (partial) pricing engages at this column count.
  static constexpr int kPartialPricingMinCols = 512;
  // Devex weights past this trigger a reference-framework reset.
  static constexpr double kDevexWeightLimit = 1e8;
  // Lanes per blocked FTRAN when materializing missing B⁻¹ columns.
  static constexpr int kBinvBlockLanes = LuBasis::kMaxFtranBlockLanes;

  void Build(const std::vector<double>& rhs);
  // (Re)allocates the arena scratch for rows_ rows and drops everything
  // keyed on the previous layout: the re-price state, the duals and
  // extraction caches, and the second cached basis.
  void LayoutScratch();
  // norm_b_ := the normalized `rhs` (one kernel pass).
  void NormalizeRhs(const std::vector<double>& rhs);
  // Sets b from norm_b_ and computes x_basic = B⁻¹b. Incremental when the
  // factorization is unchanged since the last re-price: each moved RHS
  // coordinate contributes Δ_j times column j of B⁻¹ (materialized by
  // blocked FTRANs and memoized per factorization in binv_pool), so a
  // k-statistic what-if probe costs O(rows × k) instead of a full FTRAN.
  // Every kFullRepriceInterval calls a fresh FTRAN bounds drift.
  void RepriceNormalized();
  // Ensures binv_pool holds B⁻¹ e_j for the first `n` entries of `rows`
  // (missing columns are materialized kBinvBlockLanes at a time with
  // FtranBlock).
  void MaterializeBinvColumns(const int* rows, int n);
  // Called whenever the basis or its factorization changes.
  void InvalidateReprice();
  // After an incremental re-price, x_reprice is the master copy and
  // x_basic lags it (x_basic_stale): the witness scan and extraction
  // read the double master directly, so only paths that actually pivot
  // pay the long-double widen. Call before any pivot-precision use of
  // x_basic.
  void WidenReprice() {
    if (!live_.x_basic_stale) return;
    for (int i = 0; i < rows_; ++i) live_.x_basic[i] = live_.x_reprice[i];
    live_.x_basic_stale = false;
  }
  // Basic value of slot i for feasibility scans and extraction. Exact
  // whichever copy is current: the widen is a double→long-double
  // promotion, so reading the un-widened master is bitwise the same
  // value the promoted copy would narrow back to.
  double BasicValue(int i) const {
    return live_.x_basic_stale ? live_.x_reprice[i]
                               : static_cast<double>(live_.x_basic[i]);
  }
  // The witness feasibility scan over the basic values, hoisted out of
  // the cascade and block-resolve loops: kFeasible when the cached basis
  // serves this RHS as-is, kInfeasible when dual simplex must repair
  // negative basics, kArtificial when a basic artificial sits off zero
  // (the basis cannot represent the RHS; only a cold solve decides).
  enum class ScanVerdict { kFeasible, kInfeasible, kArtificial };
  ScanVerdict ScanBasics() const;
  // Any mutation of the live basis header marks its artificial-slot list
  // stale; the next ScanBasics rebuilds it (see BasisSlot::art_slots).
  void MarkBasisChanged() { live_.art_slots_dirty = true; }
  // The cold-solve driver (anti-degeneracy attempt + unperturbed rerun)
  // behind the public Solve(); shared with the cascade's cold fallback so
  // a fallback accumulates into the call's stats_ instead of resetting it.
  void SolveFromScratch(const std::vector<double>& rhs, LpResult& result);
  // The cold two-phase solve behind Solve(). With `anti_degeneracy`, the
  // normalized RHS gets graded positive shifts so the ratio test is
  // (almost) never tied, and a cleanup pass restores the true RHS from
  // the perturbed-optimal basis; sets cleanup_failed_ when that repair
  // does not go through (Solve then re-runs unperturbed).
  void SolveCore(const std::vector<double>& rhs, bool anti_degeneracy,
                 LpResult& result);
  Scalar NormalizedRhs(int i, const std::vector<double>& rhs) const;
  // Refactorizes the basis and recomputes basic values from b. Returns
  // false (setting numerical_failure_) if the basis went singular.
  bool Refactorize();
  // Primal phase on `cost`; false on iteration limit or numerical failure.
  bool RunPhase(const std::vector<double>& cost, bool phase_two);
  // Entering-column choice for RunPhase's non-Bland iterations: Dantzig or
  // Devex criterion, over the candidate list when partial pricing is
  // active (falling back to — and rebuilding the list from — a full sweep
  // when the list goes dry). Returns kNoCol only after a full sweep found
  // no eligible column; `best` is the entering column's reduced cost.
  int PriceEntering(const std::vector<double>& cost, int limit, double& best);
  // Devex weight maintenance for the chosen (enter, leave_slot) pivot, in
  // two halves: Prepare runs against the *pre-pivot* basis (one BTRAN
  // materializes the pivot row, and every nonbasic column's candidate
  // weight is staged — all columns, not just the candidate list: stale
  // weights were measured to cost far more pivots than the full update
  // pass costs to maintain), and Commit applies the staged weights only
  // once ApplyPivot has actually taken the pivot (a rejected-and-rolled-
  // back pivot must not leave phantom updates behind). Commit also resets
  // the reference framework when weights blow past kDevexWeightLimit.
  void PrepareDevexWeights(int enter, int leave_slot,
                           const std::vector<Scalar>& w, int limit);
  void CommitDevexWeights();
  enum class DualOutcome { kOptimal, kInfeasible, kIterationLimit };
  DualOutcome RunDualSimplex();
  // The witness / second-basis witness / dual-simplex / cold cascade
  // against the cached bases — the shared per-column body of
  // ResolveWithRhs and ResolveWithRhsBatch. Callers must have reset the
  // iteration bookkeeping and checked has_basis_.
  void ResolveCascade(const std::vector<double>& rhs, LpResult& result);
  // Copies the live basis into the second slot (its B⁻¹ memo empty), and
  // exchanges the two wholesale; see BasisSlot.
  void StashAlternateBasis();
  void SwapAlternateBasis() { std::swap(live_, alt_); }
  // Whether norm_b_ is bitwise the RHS a basis last re-priced (`last_b`,
  // meaningful only when `valid`).
  bool LastRepricedAt(bool valid, const double* last_b) const;
  // Ratio test with the lexicographic tie-break; -1 if no row qualifies.
  int ChooseLeavingSlot(const std::vector<Scalar>& w);
  // Swaps `enter` into the basis at `leave_slot` using the FTRAN image `w`
  // of the entering column; updates basic values and the factorization.
  // Returns false — with the previous basis restored and refactorized —
  // when the post-pivot basis turns out numerically singular (the pivot
  // element only looked acceptable through update-chain drift); the caller
  // must not retry the same entering column.
  bool ApplyPivot(int enter, int leave_slot, const std::vector<Scalar>& w);
  void EvictArtificials();
  // y_ := B⁻ᵀ cost_B (row space).
  void ComputeDuals(const std::vector<double>& cost);
  // Exit writers: every LpResult field is set (result objects are reused
  // across batch columns, so a skipped field would be a stale read).
  // `repeat` asserts x_basic is bitwise-unchanged since the previous
  // extraction (the memoized witness branch of ResolveCascade): the x
  // vector and objective are then served from the extraction cache —
  // flat double memcpys — instead of re-scattering and re-dotting.
  void ExtractOptimal(LpEvalPath path, LpResult& result, bool repeat = false);
  void Failure(LpStatus status, LpResult& result);
  // Copies this call's kernel-counter deltas into stats_ (lp/kernels.h).
  void FillKernelStats();
  // The iteration limit of one solver call (SimplexOptions::max_iterations,
  // 0 = automatic).
  int MaxIterations() const;
  // The witness-only sweep of the relaxed block resolve: serves every
  // column of stale_cols_[from..] the live basis covers (no pivots) and
  // compacts the rest in place.
  void WitnessSweep(std::span<const std::vector<double>> rhs_batch,
                    std::vector<LpResult>& out, std::size_t from);

  LpProblem problem_;
  SimplexOptions options_;
  PricingRule pricing_ = PricingRule::kDantzig;        // resolved, pinned
  const LpKernels* kernels_;  // dispatch table per SimplexOptions::simd

  int rows_ = 0;
  int cols_ = 0;       // structural + slack/surplus + artificial
  int first_art_ = 0;  // first artificial column index
  SparseMatrix a_;     // normalized constraint matrix, all columns
  std::vector<double> row_sign_;
  std::vector<double> phase2_cost_;  // structural objective, padded to cols_

  // Arena-backed re-pricing scratch, (re)allocated per cold Build. The
  // normalized-RHS pipeline is all double (NormalizedRhsEntry computes in
  // double), so the double buffers lose nothing; the pivot-precision
  // consumers read the widened x_basic.
  Arena arena_;
  double* problem_rhs_ = nullptr;   // constraint(i).rhs, for the empty-rhs case
  double* perturb_term_ = nullptr;  // perturb * (1 + i % 101)
  double* norm_b_ = nullptr;        // row_sign * b + perturb_term (this call)
  // FtranBlock staging (rows_ x kBinvBlockLanes, lane-interleaved).
  Scalar* binv_block_ = nullptr;

  // Re-prices between fresh FTRANs, bounding incremental delta drift (see
  // RepriceNormalized).
  static constexpr int kFullRepriceInterval = 64;
  // Set by RepriceNormalized when the normalized RHS was bitwise-unchanged
  // from the previous re-price (x_basic untouched); with witness_scan_ok —
  // "the x currently in x_basic passed the cascade's feasibility scan" —
  // ResolveCascade skips straight to the witness extraction. Both are
  // exact memoizations (identical values ⇒ identical verdict), so the
  // fast path changes no result bit.
  bool rhs_unchanged_ = false;
  std::vector<int> moved_;    // rows whose normalized RHS changed
  std::vector<int> missing_;  // moved rows without a memoized B⁻¹ column
  std::vector<double> pivot_w_;  // narrowed pivot column for the memo update
  // Columns deferred to the pivoting pass of the relaxed block resolve.
  std::vector<std::size_t> stale_cols_;

  // Everything keyed on one factorized optimal basis. The solver works on
  // live_; alt_ is the second cached optimal basis (see the file comment
  // and ResolveCascade), exchanged wholesale by SwapAlternateBasis, so a
  // swapped-in basis resumes exactly where it left off. A member added
  // here travels with its basis by construction. alt_ is valid while
  // has_alt_basis_; LayoutScratch drops it, since its factorization and
  // arena arrays refer to the old matrix.
  struct BasisSlot {
    std::vector<int> basis;     // slot -> column
    std::vector<int> in_basis;  // column -> slot, or kNoCol
    LuBasis lu;
    std::vector<double> duals;  // of the basis's last optimal extraction
    std::vector<Scalar> b;        // normalized RHS of the last Build/Resolve
    std::vector<Scalar> x_basic;  // basic values per slot
    // Arena arrays (rows_ doubles; rows_ x rows_ for the pool), one set per
    // slot: the normalized RHS of the last re-price, B⁻¹ last_b (the
    // double master copy), and the memoized B⁻¹ columns, column-major
    // (column j at binv_pool + j*rows_, in double — they only ever feed
    // the double delta axpy), gated by binv_valid.
    double* last_b = nullptr;
    double* x_reprice = nullptr;
    double* binv_pool = nullptr;
    std::vector<char> binv_valid;
    // Incremental re-pricing state (see RepriceNormalized), invalidated by
    // InvalidateReprice on any basis/factorization change.
    bool reprice_valid = false;
    int reprices_since_full = 0;
    bool witness_scan_ok = false;  // see rhs_unchanged_
    // True while x_reprice is ahead of x_basic (see WidenReprice).
    bool x_basic_stale = false;
    // Extraction cache for the repeated-witness fast path: the x/objective
    // of the last ExtractOptimal, valid only while x_basic is untouched
    // (consumed strictly behind the rhs_unchanged_ && witness_scan_ok
    // gate, refreshed by every non-repeat extraction).
    std::vector<double> cached_x;
    double cached_objective = 0.0;
    bool result_cache_valid = false;
    // Slots whose basic column is an artificial, rebuilt lazily per basis
    // header (see ScanBasics / MarkBasisChanged). Mutable: the scan is a
    // logically-const query and the list is a cache of `basis`.
    mutable std::vector<int> art_slots;
    mutable bool art_slots_dirty = true;
  };
  BasisSlot live_;
  BasisSlot alt_;
  bool has_alt_basis_ = false;

  int iterations_ = 0;
  int max_iterations_ = 0;
  bool unbounded_ = false;
  bool has_basis_ = false;
  bool numerical_failure_ = false;
  bool bland_mode_ = false;  // Bland's-rule fallback engaged (RunPhase)
  bool cleanup_failed_ = false;  // perturbation cleanup fell through
  std::vector<bool> frozen_;

  // Per-call counters (LpResult::stats): reset at the public entry points
  // (Solve, ResolveWithRhs, each batch column) and accumulated across the
  // whole cascade, including cold fallbacks and the anti-degeneracy rerun.
  LpSolveStats stats_;
  // Thread-local kernel counters at the last public entry; FillKernelStats
  // reports the delta (see lp/kernels.h).
  LpKernelCounters kernel_base_;
  // Devex reference weights per column (reset to 1 per phase and on
  // blow-up), the staged updates of the pending pivot (see
  // PrepareDevexWeights/CommitDevexWeights), and the candidate list of
  // partial pricing.
  std::vector<double> devex_w_;
  std::vector<std::pair<int, double>> devex_pending_;  // (col, new weight)
  int devex_pending_out_ = kNoCol;
  double devex_pending_out_w_ = 1.0;
  bool devex_pending_reset_ = false;
  std::vector<int> price_list_;

  // Scratch (slot/row space, size rows_).
  std::vector<Scalar> y_;     // duals
  std::vector<Scalar> w_;     // FTRAN image of the entering column
  // Pre-U intermediate of the entering column's FTRAN (the FT spike),
  // captured so ApplyPivot's basis update skips the duplicate forward
  // solve. Valid only between the capturing Ftran and the pivot.
  std::vector<Scalar> spike_;
  std::vector<Scalar> cb_;    // basic costs
  std::vector<Scalar> unit_;  // unit-vector solves (B⁻¹ columns/rows)
  std::vector<Scalar> row_l_;  // leaving row of B⁻¹ (dual simplex, evict)
  std::vector<int> tied_;       // ratio-test tie candidates
  std::vector<int> survivors_;  // tie candidates surviving a coordinate
  std::vector<std::pair<double, int>> ranked_;  // pricing-sweep scratch
};

}  // namespace lpb

#endif  // LPB_LP_REVISED_SIMPLEX_H_
