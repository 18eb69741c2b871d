#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace lpb {
namespace {

constexpr long double kLexEps = 1e-12L;
constexpr long double kInf = std::numeric_limits<long double>::infinity();

}  // namespace

RevisedSimplex::RevisedSimplex(const LpProblem& problem,
                               const SimplexOptions& options)
    : problem_(problem),
      options_(options),
      pricing_(ResolveLpPricing(options)),
      kernels_(&GetLpKernels(ResolveSimdMode(options))) {
  LuOptions lu_options;
  lu_options.max_updates = options_.max_basis_updates;
  live_.lu = LuBasis(lu_options);
}

RevisedSimplex::Scalar RevisedSimplex::NormalizedRhs(
    int i, const std::vector<double>& rhs) const {
  return NormalizedRhsEntry(problem_, row_sign_, options_.perturb, i, rhs);
}

void RevisedSimplex::Build(const std::vector<double>& rhs) {
  const int n = problem_.num_vars();
  rows_ = problem_.num_constraints();
  has_basis_ = false;
  LayoutScratch();

  // Row normalization shared with the dense solver (lp/solver_common.h) — the
  // differential checks depend on the two applying the identical
  // transform.
  NormalizedRows normalized = NormalizeRows(problem_, rhs);
  const std::vector<LpSense>& sense = normalized.sense;
  row_sign_ = std::move(normalized.row_sign);
  first_art_ = n + normalized.num_slack;
  cols_ = first_art_ + normalized.num_art;

  // Column-major assembly. Structural columns bucket the constraint terms
  // by variable; the slack/surplus and artificial blocks are unit columns
  // appended in the same global numbering the dense tableau uses.
  a_ = SparseMatrix(rows_);
  std::vector<std::vector<SparseEntry>> structural(n);
  for (int i = 0; i < rows_; ++i) {
    for (const LpTerm& term : problem_.constraint(i).terms) {
      structural[term.var].push_back({i, row_sign_[i] * term.coef});
    }
  }
  for (int j = 0; j < n; ++j) a_.AppendColumn(std::move(structural[j]));

  live_.b.assign(rows_, 0.0);
  std::vector<int> slack_col(rows_, kNoCol);
  std::vector<int> art_col(rows_, kNoCol);
  std::vector<double> slack_sign(rows_, 0.0);
  int next_slack = n;
  int next_art = first_art_;
  for (int i = 0; i < rows_; ++i) {
    live_.b[i] = NormalizedRhs(i, rhs);
    switch (sense[i]) {
      case LpSense::kLe:
        slack_col[i] = next_slack++;
        slack_sign[i] = 1.0;
        break;
      case LpSense::kGe:
        slack_col[i] = next_slack++;
        slack_sign[i] = -1.0;
        art_col[i] = next_art++;
        break;
      case LpSense::kEq:
        art_col[i] = next_art++;
        break;
    }
  }
  for (int i = 0; i < rows_; ++i) {
    if (slack_col[i] != kNoCol) a_.AppendColumn({{i, slack_sign[i]}});
  }
  for (int i = 0; i < rows_; ++i) {
    if (art_col[i] != kNoCol) a_.AppendColumn({{i, 1.0}});
  }

  // Starting basis: slack for <=, artificial for >= and = — the identity,
  // which both seeds a trivial factorization and starts the lexicographic
  // invariant (rows of [B⁻¹b | B⁻¹] positive).
  live_.basis.assign(rows_, kNoCol);
  live_.in_basis.assign(cols_, kNoCol);
  for (int i = 0; i < rows_; ++i) {
    const int bcol = art_col[i] != kNoCol ? art_col[i] : slack_col[i];
    live_.basis[i] = bcol;
    live_.in_basis[bcol] = i;
  }
  MarkBasisChanged();

  phase2_cost_.assign(cols_, 0.0);
  for (int j = 0; j < n; ++j) phase2_cost_[j] = problem_.objective_coef(j);

  // Initial factorization of the identity starting basis — not counted as
  // a refactorization in stats_ (those measure re-work after the first).
  if (!live_.lu.Factorize(a_, live_.basis)) {
    numerical_failure_ = true;
    return;
  }
  live_.x_basic = live_.b;
  live_.lu.Ftran(live_.x_basic);
}

bool RevisedSimplex::Refactorize() {
  InvalidateReprice();
  ++stats_.refactorizations;
  if (!live_.lu.Factorize(a_, live_.basis)) {
    numerical_failure_ = true;
    return false;
  }
  live_.x_basic = live_.b;
  live_.lu.Ftran(live_.x_basic);
  return true;
}

void RevisedSimplex::InvalidateReprice() {
  live_.reprice_valid = false;
  live_.witness_scan_ok = false;
  live_.x_basic_stale = false;  // callers recompute x_basic from b directly
  std::fill(live_.binv_valid.begin(), live_.binv_valid.end(), 0);
}

void RevisedSimplex::LayoutScratch() {
  // Arena-backed re-pricing scratch: one Reset and a few pointer bumps per
  // cold Build or row append (the chunks are reused, so repeated Builds of
  // the same shape never hit the allocator). The B⁻¹ pool is
  // uninitialized on purpose — binv_valid gates every read. The second
  // cached basis lives in the same arena and refers to the old matrix, so
  // it goes too.
  arena_.Reset();
  problem_rhs_ = arena_.AllocArray<double>(rows_);
  perturb_term_ = arena_.AllocArray<double>(rows_);
  norm_b_ = arena_.AllocArray<double>(rows_);
  live_.last_b = arena_.AllocArray<double>(rows_);
  live_.x_reprice = arena_.AllocArray<double>(rows_);
  live_.binv_pool =
      arena_.AllocArray<double>(static_cast<std::size_t>(rows_) * rows_);
  binv_block_ = arena_.AllocArray<Scalar>(static_cast<std::size_t>(rows_) *
                                          kBinvBlockLanes);
  for (int i = 0; i < rows_; ++i) {
    problem_rhs_[i] = problem_.constraint(i).rhs;
    // The graded perturbation of NormalizedRhsEntry, precomputed so RHS
    // normalization is one vectorizable sign*b + term kernel pass.
    perturb_term_[i] = options_.perturb * (1 + i % 101);
  }
  live_.binv_valid.assign(rows_, 0);
  InvalidateReprice();
  live_.result_cache_valid = false;
  live_.duals.clear();
  has_alt_basis_ = false;
  alt_.x_reprice = alt_.last_b = alt_.binv_pool = nullptr;
}

void RevisedSimplex::StashAlternateBasis() {
  // The arena arrays are the one part of a slot a copy cannot share: alt_
  // keeps its own (allocated on first use), and takes the live contents.
  if (alt_.x_reprice == nullptr) {
    alt_.x_reprice = arena_.AllocArray<double>(rows_);
    alt_.last_b = arena_.AllocArray<double>(rows_);
    alt_.binv_pool =
        arena_.AllocArray<double>(static_cast<std::size_t>(rows_) * rows_);
  }
  double* const x_reprice = alt_.x_reprice;
  double* const last_b = alt_.last_b;
  double* const binv_pool = alt_.binv_pool;
  alt_ = live_;
  alt_.x_reprice = x_reprice;
  alt_.last_b = last_b;
  alt_.binv_pool = binv_pool;
  std::copy(live_.x_reprice, live_.x_reprice + rows_, alt_.x_reprice);
  std::copy(live_.last_b, live_.last_b + rows_, alt_.last_b);
  // Its B⁻¹ memo starts empty; it re-prices afresh on its first turn.
  std::fill(alt_.binv_valid.begin(), alt_.binv_valid.end(), 0);
  alt_.reprice_valid = false;
  alt_.reprices_since_full = 0;
  alt_.witness_scan_ok = false;
  alt_.result_cache_valid = false;
  has_alt_basis_ = true;
}

bool RevisedSimplex::LastRepricedAt(bool valid, const double* last_b) const {
  return valid &&
         std::memcmp(norm_b_, last_b, sizeof(double) * rows_) == 0;
}

void RevisedSimplex::MaterializeBinvColumns(const int* rows, int n) {
  missing_.clear();
  for (int k = 0; k < n; ++k) {
    if (!live_.binv_valid[rows[k]]) missing_.push_back(rows[k]);
  }
  std::size_t p = 0;
  while (p < missing_.size()) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(kBinvBlockLanes, missing_.size() - p));
    if (lanes == 1) {
      // A lone column: the plain FTRAN, skipping the block staging.
      const int j = missing_[p];
      unit_.assign(rows_, 0.0);
      unit_[j] = 1.0;
      live_.lu.Ftran(unit_);
      double* colj = live_.binv_pool + static_cast<std::size_t>(j) * rows_;
      for (int i = 0; i < rows_; ++i) colj[i] = static_cast<double>(unit_[i]);
      live_.binv_valid[j] = 1;
      ++p;
      continue;
    }
    // Blocked: `lanes` unit vectors through one FtranBlock — the L/U entry
    // lists are traversed once for the whole block instead of once per
    // column (each lane's arithmetic is bitwise the solo FTRAN's).
    std::fill(binv_block_,
              binv_block_ + static_cast<std::size_t>(rows_) * lanes,
              Scalar{0.0});
    for (int l = 0; l < lanes; ++l) {
      binv_block_[static_cast<std::size_t>(missing_[p + l]) * lanes + l] = 1.0;
    }
    live_.lu.FtranBlock(binv_block_, lanes);
    for (int l = 0; l < lanes; ++l) {
      const int j = missing_[p + l];
      double* colj = live_.binv_pool + static_cast<std::size_t>(j) * rows_;
      for (int i = 0; i < rows_; ++i) {
        colj[i] = static_cast<double>(
            binv_block_[static_cast<std::size_t>(i) * lanes + l]);
      }
      live_.binv_valid[j] = 1;
    }
    p += lanes;
  }
}

RevisedSimplex::ScanVerdict RevisedSimplex::ScanBasics() const {
  // Artificial slots are tracked per basis header, not per scan: they are
  // empty after any successful phase-1 eviction, and rebuilding the list
  // on basis changes (pivots are rare next to scans on the witness-heavy
  // paths) keeps the per-scan artificial check O(#artificial slots).
  // Verdict precedence (artificial before infeasible) matches the
  // historical early-breaking loops: both report kArtificial whenever any
  // off-zero basic artificial exists.
  if (live_.art_slots_dirty) {
    live_.art_slots.clear();
    for (int i = 0; i < rows_; ++i) {
      if (live_.basis[i] >= first_art_) live_.art_slots.push_back(i);
    }
    live_.art_slots_dirty = false;
  }
  for (int i : live_.art_slots) {
    if (std::abs(BasicValue(i)) > 1e-7) return ScanVerdict::kArtificial;
  }
  // What remains is a pure min reduction over the basic values; four
  // accumulators break the serial min dependency so the sweep runs at
  // load bandwidth on the common stale-master (double) path.
  double most_negative = 0.0;
  if (live_.x_basic_stale) {
    const double* x = live_.x_reprice;
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    int i = 0;
    for (; i + 4 <= rows_; i += 4) {
      m0 = std::min(m0, x[i]);
      m1 = std::min(m1, x[i + 1]);
      m2 = std::min(m2, x[i + 2]);
      m3 = std::min(m3, x[i + 3]);
    }
    for (; i < rows_; ++i) m0 = std::min(m0, x[i]);
    most_negative = std::min(std::min(m0, m1), std::min(m2, m3));
  } else {
    for (int i = 0; i < rows_; ++i) {
      most_negative =
          std::min(most_negative, static_cast<double>(live_.x_basic[i]));
    }
  }
  if (most_negative < -options_.eps) return ScanVerdict::kInfeasible;
  return ScanVerdict::kFeasible;
}

void RevisedSimplex::NormalizeRhs(const std::vector<double>& rhs) {
  // Normalize the whole RHS in one kernel pass (the historical per-entry
  // NormalizedRhsEntry, all-double arithmetic, with the perturbation term
  // precomputed in LayoutScratch).
  const double* bsrc = rhs.empty() ? problem_rhs_ : rhs.data();
  LpNormalizeRhsD(*kernels_, row_sign_.data(), bsrc, perturb_term_, norm_b_,
                  rows_);
}

void RevisedSimplex::RepriceNormalized() {
  rhs_unchanged_ = false;
  if (live_.reprice_valid && live_.reprices_since_full < kFullRepriceInterval &&
      options_.perturb == 0.0) {
    // Incremental: x_new = x_old + Σ_j Δ_j · (B⁻¹ e_j) over the moved
    // coordinates — memoized double B⁻¹ columns folded in with the fma
    // axpy kernel. Exact comparison is deliberate: an unchanged coordinate
    // contributes an exact zero delta. (A user-supplied perturbation
    // forces the full path; perturbed resolves are rare and cold-heavy,
    // and keeping them out of the delta path keeps it exactly the
    // unperturbed b-difference.)
    // The delta scan doubles as the unchanged-RHS fast exit: no moved
    // coordinate means x (= B⁻¹ last_b) is already the answer — no delta
    // work, no tick of the drift interval (an untouched x accumulates
    // none). This is the steady state of a batch re-pricing the same
    // template values. Chunked bitwise pre-filter: almost every
    // coordinate is bitwise-unchanged between re-prices, so 8-wide
    // memcmp blocks (inlined SSE compares) skip straight past them and
    // only mismatching blocks fall to the per-element compare. Bitwise
    // inequality over-approximates value inequality only for ±0.0 pairs,
    // which then contribute an exact zero delta — harmless.
    if (static_cast<int>(moved_.size()) < rows_) moved_.resize(rows_);
    int moved_n = 0;
    int j = 0;
    for (; j + 8 <= rows_; j += 8) {
      if (std::memcmp(norm_b_ + j, live_.last_b + j, 8 * sizeof(double)) == 0) {
        continue;
      }
      for (int t = j; t < j + 8; ++t) {
        moved_[moved_n] = t;
        moved_n += norm_b_[t] != live_.last_b[t] ? 1 : 0;
      }
    }
    for (; j < rows_; ++j) {
      moved_[moved_n] = j;
      moved_n += norm_b_[j] != live_.last_b[j] ? 1 : 0;
    }
    if (moved_n == 0) {
      rhs_unchanged_ = true;
      return;
    }
    ++live_.reprices_since_full;
    MaterializeBinvColumns(moved_.data(), moved_n);
    for (int k = 0; k < moved_n; ++k) {
      const int j = moved_[k];
      const double d = norm_b_[j] - live_.last_b[j];
      live_.last_b[j] = norm_b_[j];
      live_.b[j] = norm_b_[j];
      LpAxpyD(*kernels_, d,
              live_.binv_pool + static_cast<std::size_t>(j) * rows_,
              live_.x_reprice, rows_);
    }
    // The double master copy is now ahead of the pivot-precision x_basic;
    // the widen is deferred (WidenReprice) so witness-served re-prices —
    // scan plus extraction, both reading the double master — never pay it.
    // Drift of the double accumulation is bounded by the periodic full
    // re-price, same as before.
    live_.x_basic_stale = true;
  } else if (live_.reprice_valid &&
             LpEqualD(*kernels_, norm_b_, live_.last_b, rows_)) {
    // Bitwise-unchanged RHS reaching here (drift interval expired, or a
    // perturbed resolve): same fast exit as the delta scan's.
    rhs_unchanged_ = true;
    return;
  } else {
    for (int i = 0; i < rows_; ++i) live_.b[i] = norm_b_[i];
    live_.x_basic = live_.b;
    live_.lu.Ftran(live_.x_basic);
    live_.x_basic_stale = false;
    for (int i = 0; i < rows_; ++i) {
      live_.x_reprice[i] = static_cast<double>(live_.x_basic[i]);
      live_.last_b[i] = norm_b_[i];
    }
    live_.reprice_valid = true;
    live_.reprices_since_full = 0;
  }
}

void RevisedSimplex::ComputeDuals(const std::vector<double>& cost) {
  cb_.assign(rows_, 0.0);
  for (int i = 0; i < rows_; ++i) cb_[i] = cost[live_.basis[i]];
  y_ = cb_;
  live_.lu.Btran(y_);
}

int RevisedSimplex::ChooseLeavingSlot(const std::vector<Scalar>& w) {
  // Scale-aware eligibility: a true zero of the column survives FTRAN as
  // noise of order cond(B)·u·‖w‖, which crosses any absolute threshold
  // once the basis degrades — and pivoting on such noise is what degrades
  // it. The dense tableau gets away with an absolute eps only because its
  // long-double tableau keeps the noise floor ~1e-19. Anchoring the
  // threshold to ‖w‖∞ keeps noise entries out of the ratio test.
  Scalar scale = 0.0;
  for (int i = 0; i < rows_; ++i) scale = std::max(scale, std::abs(w[i]));
  const Scalar eps = options_.eps * std::max<Scalar>(1.0, scale);
  // Pass 1: minimum ratio; collect every slot within kLexEps of it.
  Scalar best_ratio = kInf;
  tied_.clear();
  for (int i = 0; i < rows_; ++i) {
    const Scalar a = w[i];
    if (a <= eps) continue;
    const Scalar ratio = live_.x_basic[i] / a;
    if (ratio < best_ratio - kLexEps) {
      best_ratio = ratio;
      tied_.clear();
      tied_.push_back(i);
    } else if (ratio <= best_ratio + kLexEps) {
      tied_.push_back(i);
    }
  }
  if (tied_.empty()) return -1;
  if (bland_mode_) {
    // Bland's leaving rule: among the min-ratio rows, the smallest basic
    // column index. Combined with smallest-index pricing this provably
    // terminates from any basis — no invariant to maintain, so it is the
    // fallback of record when float rounding erodes the lexicographic
    // comparisons below (see RunPhase).
    int leave = tied_.front();
    for (int i : tied_) {
      if (live_.basis[i] < live_.basis[leave]) leave = i;
    }
    return leave;
  }
  // Pass 2: lexicographic tie-break on the rows of B⁻¹ scaled by the pivot
  // entries — the same invariant the dense tableau maintains over its
  // slack/artificial block. Rather than materializing one B⁻¹ *row* per
  // tied slot (a BTRAN per challenger — quadratic on the massively
  // degenerate cutting-plane LPs, where most of the basis ties at ratio
  // zero), compare coordinate by coordinate: one FTRAN materializes column
  // r of B⁻¹ across *all* tied slots at once, and survivors of each
  // coordinate shrink fast (usually to one after a column or two).
  for (int r = 0; r < rows_ && tied_.size() > 1; ++r) {
    unit_.assign(rows_, 0.0);
    unit_[r] = 1.0;
    live_.lu.Ftran(unit_);  // unit_[i] = (B⁻¹)[i, r], slot-indexed
    Scalar best = kInf;
    for (int i : tied_) best = std::min(best, unit_[i] / w[i]);
    survivors_.clear();
    for (int i : tied_) {
      if (unit_[i] / w[i] <= best + kLexEps) survivors_.push_back(i);
    }
    tied_.swap(survivors_);
  }
  return tied_.front();
}

bool RevisedSimplex::ApplyPivot(int enter, int leave_slot,
                                const std::vector<Scalar>& w) {
  // Every pivot changes B, so the re-price baseline and the witness
  // verdict are stale — but the memoized B⁻¹ columns need not be thrown
  // away: B_new = B_old·E with E the identity except column `leave_slot`
  // = w, so each cached column updates in place with one product-form
  // sweep (below). Only the refactorizing paths flush the memo, which
  // also bounds its accumulated drift by the refactorization cadence —
  // the same bound the FT updates themselves live under.
  live_.reprice_valid = false;
  live_.witness_scan_ok = false;
  MarkBasisChanged();  // covers both the pivot and the rollback below
  const int out = live_.basis[leave_slot];
  live_.in_basis[out] = kNoCol;
  live_.basis[leave_slot] = enter;
  live_.in_basis[enter] = leave_slot;
  // Basis update — Forrest–Tomlin rewrites U in place. On rejection
  // (unstable update) or an exhausted update/fill budget, refactorize
  // against the new basis header. Refactorization also recomputes the
  // basic values from b, squashing accumulated drift.
  // spike_ is the pre-U intermediate the entering column's FTRAN captured
  // (every ApplyPivot call site FTRANs the entering column immediately
  // before, with no factorization change in between), so the update skips
  // its own forward solve.
  const bool updated = live_.lu.Update(a_, enter, w, leave_slot, &spike_);
  if (updated) {
    ++stats_.ft_updates;
  } else {
    ++stats_.rejected_updates;
  }
  if (!updated || live_.lu.NeedsRefactorize()) {
    ++stats_.refactorizations;
    std::fill(live_.binv_valid.begin(), live_.binv_valid.end(), 0);
    if (!live_.lu.Factorize(a_, live_.basis)) {
      // The post-pivot basis is numerically singular: the pivot element
      // cleared eps only through update-chain drift. Roll the header
      // back and rebuild the previous basis, which factorized before.
      live_.in_basis[enter] = kNoCol;
      live_.basis[leave_slot] = out;
      live_.in_basis[out] = leave_slot;
      if (!Refactorize()) numerical_failure_ = true;
      return false;
    }
    live_.x_basic = live_.b;
    live_.lu.Ftran(live_.x_basic);
    live_.x_basic_stale = false;
    return true;
  }
  // Carry the B⁻¹ memo through the pivot: B_new⁻¹ = E⁻¹·B_old⁻¹, and
  // E⁻¹y is the standard product-form sweep (t = y_r/w_r; y -= t·w;
  // y_r = t) — O(rows) per cached column instead of a fresh unit FTRAN
  // the next time the column's coordinate moves.
  bool narrowed = false;
  const double w_leave = static_cast<double>(w[leave_slot]);
  for (int j = 0; j < rows_; ++j) {
    if (!live_.binv_valid[j]) continue;
    if (!narrowed) {
      pivot_w_.resize(rows_);
      for (int i = 0; i < rows_; ++i) {
        pivot_w_[i] = static_cast<double>(w[i]);
      }
      narrowed = true;
    }
    double* col = live_.binv_pool + static_cast<std::size_t>(j) * rows_;
    const double t = col[leave_slot] / w_leave;
    if (t != 0.0) {
      LpAxpyD(*kernels_, -t, pivot_w_.data(), col, rows_);
    }
    col[leave_slot] = t;
  }
  const Scalar theta = live_.x_basic[leave_slot] / w[leave_slot];
  if (theta != 0.0) {
    LpSweepLd(live_.x_basic.data(), w.data(), theta, rows_);
  }
  live_.x_basic[leave_slot] = theta;
  return true;
}

bool RevisedSimplex::RunPhase(const std::vector<double>& cost,
                              bool phase_two) {
  const double eps = options_.eps;
  frozen_.assign(cols_, false);
  int consecutive_rejects = 0;
  int stalled = 0;  // degenerate (zero-step) pivots since the last progress
  bland_mode_ = false;
  // Fresh Devex reference framework per phase: every column starts at
  // weight 1 (the framework is the phase-start nonbasic set).
  if (pricing_ == PricingRule::kDevex) devex_w_.assign(cols_, 1.0);
  price_list_.clear();
  while (true) {
    if (numerical_failure_ || iterations_ >= max_iterations_) return false;

    // Anti-cycling, layered: the lexicographic ratio test below is the
    // primary rule (exact-arithmetic termination, same as the dense
    // backend), but its floating-point comparisons can erode on extremely
    // degenerate LPs — so after a long run of zero-step pivots, switch to
    // Bland's rule (smallest-index pricing + smallest-index tie-break),
    // whose termination guarantee holds from any basis with no invariant
    // to preserve. Dantzig/Devex pricing resumes as soon as a pivot moves.
    bland_mode_ = stalled > kBlandStallThreshold;
    // Diagnostic heartbeat (see "Debugging" in src/lp/README.md).
    if (iterations_ % 5000 == 0 && iterations_ > 0 &&
        std::getenv("LPB_RS_DEBUG") != nullptr) {
      Scalar obj = 0.0;
      for (int i = 0; i < rows_; ++i) {
        obj += cost[live_.basis[i]] * live_.x_basic[i];
      }
      std::fprintf(
          stderr,
          "RS iter=%d obj=%.9f stalled=%d bland=%d updates=%d rows=%d\n",
          iterations_, static_cast<double>(obj), stalled, bland_mode_ ? 1 : 0,
          live_.lu.update_count(), rows_);
    }

    // Price: y = B⁻ᵀ c_B once, then one sparse dot per priced column.
    ComputeDuals(cost);
    int enter = kNoCol;
    double best = eps;
    const int limit = phase_two ? first_art_ : cols_;  // artificials barred
    if (bland_mode_) {
      // Bland's entering rule: the smallest eligible index, always over a
      // full sweep (partial pricing would break its termination argument).
      for (int j = 0; j < limit; ++j) {
        if (live_.in_basis[j] != kNoCol || frozen_[j]) continue;
        const double reduced =
            cost[j] - static_cast<double>(a_.DotColumn(j, y_));
        if (reduced > best) {
          best = reduced;
          enter = j;
          break;
        }
      }
    } else {
      enter = PriceEntering(cost, limit, best);
    }
    if (enter == kNoCol) return true;  // optimal for this phase

    w_.assign(rows_, 0.0);
    for (const SparseEntry* e = a_.ColBegin(enter); e != a_.ColEnd(enter);
         ++e) {
      w_[e->row] = e->value;
    }
    live_.lu.Ftran(w_, &spike_);

    // Cross-check the BTRAN-priced reduced cost against the FTRAN image
    // (c_j - c_B'w must match c_j - y'A_j). Disagreement means the update
    // chain has drifted; refactorize and re-price rather than pivot on
    // fiction. Skip when the factorization is already fresh.
    if (live_.lu.update_count() > 0) {
      Scalar cbw = 0.0;
      for (int i = 0; i < rows_; ++i) cbw += cb_[i] * w_[i];
      const double ftran_reduced =
          cost[enter] - static_cast<double>(cbw);
      if (std::abs(ftran_reduced - best) >
          1e-7 * std::max(1.0, std::abs(best))) {
        if (!Refactorize()) return false;
        continue;
      }
    }

    const int leave = ChooseLeavingSlot(w_);
    if (leave == -1) {
      // Same guard as the dense tableau: a barely positive reduced cost
      // over a numerically dead column is noise, not a ray.
      if (best <= 1e-6) {
        frozen_[enter] = true;
        continue;
      }
      unbounded_ = true;
      return true;
    }
    // Devex weights ride the pivot row of the *old* basis, so they are
    // staged before the factorization absorbs the pivot — and committed
    // only if the pivot actually goes through (a rejected-and-rolled-back
    // pivot must not leave phantom weight updates behind).
    if (pricing_ == PricingRule::kDevex) {
      PrepareDevexWeights(enter, leave, w_, limit);
    }
    const Scalar step = live_.x_basic[leave] / w_[leave];
    if (!ApplyPivot(enter, leave, w_)) {
      if (numerical_failure_) return false;
      // The pivot was drift: the rolled-back basis has just been
      // refactorized (accurate, update-free), so re-price and retry — the
      // honest FTRAN image usually prices the column out or picks a real
      // pivot. Freezing is a last resort after repeated rejections, since
      // wrongly freezing a live column (e.g. the objective variable)
      // silently caps the optimum.
      if (std::getenv("LPB_RS_DEBUG") != nullptr) {
        std::fprintf(stderr,
                     "RS reject: enter=%d leave=%d w_leave=%.3e best=%.3e "
                     "rejects=%d\n",
                     enter, leave, static_cast<double>(w_[leave]), best,
                     consecutive_rejects + 1);
      }
      if (++consecutive_rejects > 2) {
        frozen_[enter] = true;
        consecutive_rejects = 0;
      }
      continue;
    }
    if (pricing_ == PricingRule::kDevex) CommitDevexWeights();
    consecutive_rejects = 0;
    if (step > 1e-12) {
      stalled = 0;
    } else {
      ++stalled;
    }
    ++iterations_;
    if (phase_two) {
      ++stats_.phase2_pivots;
    } else {
      ++stats_.phase1_pivots;
    }
  }
}

int RevisedSimplex::PriceEntering(const std::vector<double>& cost, int limit,
                                  double& best) {
  const double eps = options_.eps;
  const bool partial = limit >= kPartialPricingMinCols;
  // Criterion: reduced cost (Dantzig) or reduced²/γ (Devex); ties break to
  // the lower index via strict comparison, keeping the rule deterministic.
  auto criterion = [&](int j, double reduced) {
    return pricing_ == PricingRule::kDevex ? reduced * reduced / devex_w_[j]
                                           : reduced;
  };
  if (partial && !price_list_.empty()) {
    // Candidate pass: re-price only the list, compacting out columns that
    // went basic, got frozen, or priced out since the last sweep.
    int enter = kNoCol;
    double best_score = 0.0;
    size_t keep = 0;
    for (int j : price_list_) {
      if (live_.in_basis[j] != kNoCol || frozen_[j]) continue;
      const double reduced =
          cost[j] - static_cast<double>(a_.DotColumn(j, y_));
      if (reduced <= eps) continue;
      price_list_[keep++] = j;
      const double score = criterion(j, reduced);
      if (score > best_score) {
        best_score = score;
        enter = j;
        best = reduced;
      }
    }
    price_list_.resize(keep);
    if (enter != kNoCol) return enter;
    // List ran dry — fall through to a full sweep (which alone may declare
    // optimality).
  }
  int enter = kNoCol;
  double best_score = 0.0;
  std::vector<std::pair<double, int>>& ranked = ranked_;
  ranked.clear();
  for (int j = 0; j < limit; ++j) {
    if (live_.in_basis[j] != kNoCol || frozen_[j]) continue;
    const double reduced = cost[j] - static_cast<double>(a_.DotColumn(j, y_));
    if (reduced <= eps) continue;
    const double score = criterion(j, reduced);
    if (partial) ranked.emplace_back(score, j);
    if (score > best_score) {
      best_score = score;
      enter = j;
      best = reduced;
    }
  }
  if (partial) {
    // Keep the best few dozen candidates for the following iterations.
    const size_t list_size =
        std::min(ranked.size(), static_cast<size_t>(64 + limit / 32));
    std::partial_sort(ranked.begin(), ranked.begin() + list_size,
                      ranked.end(), [](const auto& a, const auto& b) {
                        return a.first > b.first ||
                               (a.first == b.first && a.second < b.second);
                      });
    price_list_.clear();
    for (size_t k = 0; k < list_size; ++k) {
      price_list_.push_back(ranked[k].second);
    }
  }
  return enter;
}

void RevisedSimplex::PrepareDevexWeights(int enter, int leave_slot,
                                         const std::vector<Scalar>& w,
                                         int limit) {
  devex_pending_.clear();
  devex_pending_out_ = kNoCol;
  const Scalar alpha_q = w[leave_slot];
  if (alpha_q == 0.0) return;
  const int out = live_.basis[leave_slot];
  const double gamma_q = std::max(devex_w_[enter], 1.0);
  // Pivot row r of B⁻¹A: one unit BTRAN against the pre-pivot basis, then
  // a sparse dot per priced column — the same shape as a pricing pass.
  unit_.assign(rows_, 0.0);
  unit_[leave_slot] = 1.0;
  live_.lu.Btran(unit_);
  for (int j = 0; j < limit; ++j) {
    if (j == enter || live_.in_basis[j] != kNoCol || frozen_[j]) continue;
    const Scalar alpha = a_.DotColumn(j, unit_);
    if (alpha == 0.0) continue;
    const double ratio = static_cast<double>(alpha / alpha_q);
    const double candidate = ratio * ratio * gamma_q;
    if (candidate > devex_w_[j]) devex_pending_.emplace_back(j, candidate);
  }
  const double alpha_q2 = static_cast<double>(alpha_q * alpha_q);
  devex_pending_out_ = out;
  devex_pending_out_w_ = std::max(gamma_q / alpha_q2, 1.0);
  devex_pending_reset_ =
      devex_pending_out_w_ > kDevexWeightLimit || gamma_q > kDevexWeightLimit;
}

void RevisedSimplex::CommitDevexWeights() {
  for (const auto& [j, weight] : devex_pending_) {
    if (weight > devex_w_[j]) devex_w_[j] = weight;
  }
  devex_pending_.clear();
  if (devex_pending_out_ == kNoCol) return;
  devex_w_[devex_pending_out_] = devex_pending_out_w_;
  devex_pending_out_ = kNoCol;
  if (devex_pending_reset_) {
    // Weight blow-up: the reference framework no longer approximates the
    // steepest-edge norms — restart it from the current nonbasic set.
    devex_w_.assign(cols_, 1.0);
    ++stats_.devex_resets;
    devex_pending_reset_ = false;
  }
}

RevisedSimplex::DualOutcome RevisedSimplex::RunDualSimplex() {
  WidenReprice();  // pivot sweeps update x_basic in pivot precision
  const double eps = options_.eps;
  while (true) {
    if (numerical_failure_ || iterations_ >= max_iterations_) {
      return DualOutcome::kIterationLimit;
    }

    // Leaving slot: most negative basic value.
    int leave = -1;
    Scalar most = -eps;
    for (int i = 0; i < rows_; ++i) {
      if (live_.x_basic[i] < most) {
        most = live_.x_basic[i];
        leave = i;
      }
    }
    if (leave == -1) return DualOutcome::kOptimal;  // primal feasible

    // Entering column: dual ratio test over the negative entries of the
    // leaving row, which is materialized with one unit BTRAN. Artificials
    // may not re-enter, matching phase 2.
    ComputeDuals(phase2_cost_);
    unit_.assign(rows_, 0.0);
    unit_[leave] = 1.0;
    row_l_ = unit_;
    live_.lu.Btran(row_l_);
    // Same scale-aware eligibility as the primal ratio test: entries of
    // the leaving row that are noise at the row's magnitude must not be
    // pivoted on.
    Scalar scale = 0.0;
    for (int i = 0; i < rows_; ++i) {
      scale = std::max(scale, std::abs(row_l_[i]));
    }
    const Scalar alpha_eps = eps * std::max<Scalar>(1.0, scale);
    int enter = kNoCol;
    Scalar best_ratio = kInf;
    for (int j = 0; j < first_art_; ++j) {
      if (live_.in_basis[j] != kNoCol) continue;
      const Scalar alpha = a_.DotColumn(j, row_l_);
      if (alpha >= -alpha_eps) continue;
      const Scalar reduced = phase2_cost_[j] - a_.DotColumn(j, y_);
      const Scalar ratio = reduced / alpha;
      if (ratio < best_ratio - kLexEps) {
        best_ratio = ratio;
        enter = j;
      }
    }
    if (enter == kNoCol) return DualOutcome::kInfeasible;  // dual ray

    w_.assign(rows_, 0.0);
    for (const SparseEntry* e = a_.ColBegin(enter); e != a_.ColEnd(enter);
         ++e) {
      w_[e->row] = e->value;
    }
    live_.lu.Ftran(w_, &spike_);
    if (std::abs(w_[leave]) <= eps) {
      // The FTRAN image disagrees with the BTRAN row (numerical drift):
      // bail to the caller's cold fallback rather than divide by noise.
      return DualOutcome::kIterationLimit;
    }
    if (!ApplyPivot(enter, leave, w_)) {
      return DualOutcome::kIterationLimit;  // caller falls back to cold
    }
    ++iterations_;
    ++stats_.dual_pivots;
  }
}

void RevisedSimplex::EvictArtificials() {
  for (int i = 0; i < rows_; ++i) {
    if (numerical_failure_) return;
    if (live_.basis[i] < first_art_) continue;
    // Basic artificial at value ~0 after a feasible phase 1: pivot in any
    // non-artificial column with a nonzero entry in this row of B⁻¹A; if
    // none exists the row is redundant and the artificial stays basic at
    // zero, which is harmless.
    unit_.assign(rows_, 0.0);
    unit_[i] = 1.0;
    row_l_ = unit_;
    live_.lu.Btran(row_l_);
    for (int j = 0; j < first_art_; ++j) {
      if (live_.in_basis[j] != kNoCol) continue;
      if (std::abs(static_cast<double>(a_.DotColumn(j, row_l_))) <=
          options_.eps) {
        continue;
      }
      w_.assign(rows_, 0.0);
      for (const SparseEntry* e = a_.ColBegin(j); e != a_.ColEnd(j); ++e) {
        w_[e->row] = e->value;
      }
      live_.lu.Ftran(w_, &spike_);
      if (std::abs(w_[i]) <= options_.eps) continue;
      if (!ApplyPivot(j, i, w_)) {
        if (numerical_failure_) return;
        continue;  // try another column; the artificial can also stay
      }
      ++iterations_;
      ++stats_.phase1_pivots;  // artificial eviction is phase-1 cleanup
      break;
    }
  }
}

void RevisedSimplex::FillKernelStats() {
  for (int k = 0; k < kNumLpKernels; ++k) {
    stats_.kernel_calls[k] =
        g_lp_kernel_counters.calls[k] - kernel_base_.calls[k];
    stats_.kernel_cycles[k] =
        g_lp_kernel_counters.cycles[k] - kernel_base_.cycles[k];
  }
}

int RevisedSimplex::MaxIterations() const {
  return options_.max_iterations > 0 ? options_.max_iterations
                                     : 50 * (rows_ + cols_) + 1000;
}

void RevisedSimplex::ExtractOptimal(LpEvalPath path, LpResult& result,
                                    bool repeat) {
  result.status = LpStatus::kOptimal;
  result.iterations = iterations_;
  result.path = path;
  if (repeat && live_.result_cache_valid) {
    // x_basic is bitwise-unchanged since the extraction that filled the
    // cache (the caller holds rhs_unchanged_ && witness_scan_ok), so the
    // x/objective/duals here are the cached ones by construction. Serving
    // them as flat double copies skips the per-entry long-double→double
    // scatter and the objective dot on the repeated-RHS hot path.
    result.x = live_.cached_x;
    result.objective = live_.cached_objective;
    result.pricing = pricing_;
    result.duals = live_.duals;
    has_basis_ = true;
    FillKernelStats();
    result.stats = stats_;
    return;
  }
  result.x.assign(problem_.num_vars(), 0.0);
  // BasicValue: reads the double re-price master directly when x_basic
  // is lagging it — the extracted doubles are bitwise what the widened
  // copy would narrow back to, so no widen is forced here.
  for (int i = 0; i < rows_; ++i) {
    if (live_.basis[i] < problem_.num_vars()) {
      result.x[live_.basis[i]] = BasicValue(i);
    }
  }
  result.objective = LpDotD(*kernels_, phase2_cost_.data(), result.x.data(),
                            problem_.num_vars());
  live_.cached_x = result.x;
  live_.cached_objective = result.objective;
  live_.result_cache_valid = true;
  result.pricing = pricing_;

  if (path == LpEvalPath::kWitness && !live_.duals.empty()) {
    // Same basis, same cost: the duals are the previous solve's.
    result.duals = live_.duals;
  } else {
    // One BTRAN: y = B⁻ᵀ c_B are the duals of the normalized rows; undo
    // the row signs to express them against the caller's constraints.
    ComputeDuals(phase2_cost_);
    result.duals.assign(rows_, 0.0);
    for (int i = 0; i < rows_; ++i) {
      result.duals[i] = static_cast<double>(y_[i]) * row_sign_[i];
    }
    live_.duals = result.duals;
  }
  has_basis_ = true;
  FillKernelStats();
  result.stats = stats_;
}

void RevisedSimplex::Failure(LpStatus status, LpResult& result) {
  result.status = status;
  result.objective = 0.0;
  result.iterations = iterations_;
  result.path = LpEvalPath::kCold;
  result.pricing = pricing_;
  FillKernelStats();
  result.stats = stats_;
  // The LpResult contract: x/duals are sized (zeros) even on failure so
  // callers indexing them unconditionally never read stale data.
  result.x.assign(problem_.num_vars(), 0.0);
  result.duals.assign(problem_.num_constraints(), 0.0);
}

LpResult RevisedSimplex::Solve(const std::vector<double>& rhs) {
  LpResult result;
  stats_.ResetPivots();
  kernel_base_ = g_lp_kernel_counters;
  SolveFromScratch(rhs, result);
  return result;
}

void RevisedSimplex::SolveFromScratch(const std::vector<double>& rhs,
                                      LpResult& result) {
  // First attempt: anti-degeneracy perturbation with exact cleanup (see
  // SolveCore). On the heavily degenerate bound LPs the unperturbed
  // simplex can reach the optimal objective and then wander the optimal
  // face for 100k+ zero-step pivots without proving optimality; the
  // perturbed problem is nondegenerate, so pricing races to the optimum
  // and the cleanup restores exactness. A user-supplied perturbation
  // (options_.perturb) disables the internal one — matching the dense
  // backend, the caller then owns the perturbed semantics.
  if (options_.perturb == 0.0) {
    SolveCore(rhs, /*anti_degeneracy=*/true, result);
    if (!cleanup_failed_) return;
  }
  SolveCore(rhs, /*anti_degeneracy=*/false, result);
}

void RevisedSimplex::SolveCore(const std::vector<double>& rhs,
                               bool anti_degeneracy, LpResult& result) {
  iterations_ = 0;
  numerical_failure_ = false;
  cleanup_failed_ = false;
  Build(rhs);
  max_iterations_ = MaxIterations();
  if (numerical_failure_) return Failure(LpStatus::kIterationLimit, result);
  if (anti_degeneracy) {
    // Graded positive shifts, the same shape as SimplexOptions::perturb.
    // Magnitude: far above the long-double noise floor, far below the
    // data; exactness is restored by the cleanup below, not by keeping
    // this small.
    for (int i = 0; i < rows_; ++i) {
      live_.b[i] += kAntiDegeneracyEps * (1 + i % 101);
    }
    live_.x_basic = live_.b;
    live_.lu.Ftran(live_.x_basic);
  }

  // Phase 1: maximize -sum(artificials), feasible iff optimum is 0.
  if (first_art_ < cols_) {
    std::vector<double> cost(cols_, 0.0);
    for (int j = first_art_; j < cols_; ++j) cost[j] = -1.0;
    if (!RunPhase(cost, /*phase_two=*/false)) {
      cleanup_failed_ = anti_degeneracy;
      return Failure(LpStatus::kIterationLimit, result);
    }
    Scalar infeas = 0.0;
    for (int i = 0; i < rows_; ++i) {
      if (live_.basis[i] >= first_art_) infeas += live_.x_basic[i];
    }
    if (infeas > 1e-7) {
      // An infeasibility verdict under perturbation is not trustworthy:
      // shifting linearly dependent equality rows by different amounts
      // manufactures inconsistency a feasible problem never had. Only the
      // unperturbed run may declare infeasible.
      cleanup_failed_ = anti_degeneracy;
      return Failure(LpStatus::kInfeasible, result);
    }
    EvictArtificials();
    if (numerical_failure_) {
      cleanup_failed_ = anti_degeneracy;
      return Failure(LpStatus::kIterationLimit, result);
    }
  }

  // Phase 2: the real objective; artificials are barred from entering.
  unbounded_ = false;
  if (!RunPhase(phase2_cost_, /*phase_two=*/true)) {
    cleanup_failed_ = anti_degeneracy;
    return Failure(LpStatus::kIterationLimit, result);
  }
  if (unbounded_) {
    // The certifying ray lives in the recession cone, which no RHS shift
    // changes — but "unbounded" also asserts the problem is *feasible*,
    // and the perturbation does change that (a problem infeasible by less
    // than the shifts can open up). Trust the verdict only if the current
    // basis is also feasible at the true RHS; otherwise re-run
    // unperturbed.
    if (anti_degeneracy) {
      for (int i = 0; i < rows_; ++i) live_.b[i] = NormalizedRhs(i, rhs);
      live_.x_basic = live_.b;
      live_.lu.Ftran(live_.x_basic);
      for (int i = 0; i < rows_; ++i) {
        if (live_.x_basic[i] < -options_.eps ||
            (live_.basis[i] >= first_art_ &&
             std::abs(static_cast<double>(live_.x_basic[i])) > 1e-7)) {
          cleanup_failed_ = true;
          break;
        }
      }
    }
    return Failure(LpStatus::kUnbounded, result);
  }
  if (!anti_degeneracy) return ExtractOptimal(LpEvalPath::kCold, result);

  // Cleanup: drop the perturbation and re-price the true RHS under the
  // perturbed-optimal basis. The basis stays dual-feasible (costs are
  // untouched), so at worst a few dual-simplex pivots repair the slightly
  // negative basic values; if anything fails, Solve() re-runs without the
  // perturbation.
  for (int i = 0; i < rows_; ++i) live_.b[i] = NormalizedRhs(i, rhs);
  live_.x_basic = live_.b;
  live_.lu.Ftran(live_.x_basic);
  bool feasible = true;
  for (int i = 0; i < rows_; ++i) {
    if (live_.x_basic[i] < -options_.eps) feasible = false;
    if (live_.basis[i] >= first_art_ &&
        std::abs(static_cast<double>(live_.x_basic[i])) > 1e-7) {
      cleanup_failed_ = true;
      return Failure(LpStatus::kIterationLimit, result);
    }
  }
  if (feasible) return ExtractOptimal(LpEvalPath::kCold, result);
  if (RunDualSimplex() == DualOutcome::kOptimal) {
    return ExtractOptimal(LpEvalPath::kCold, result);
  }
  cleanup_failed_ = true;
  return Failure(LpStatus::kIterationLimit, result);
}

void RevisedSimplex::ResolveCascade(const std::vector<double>& rhs,
                                    LpResult& result) {
  NormalizeRhs(rhs);
  // An exact repeat of the RHS the second cached basis last served as a
  // witness (two alternating value vectors): swap it in, and the re-price
  // below takes its unchanged-RHS exit.
  if (has_alt_basis_ && alt_.witness_scan_ok &&
      LastRepricedAt(alt_.reprice_valid, alt_.last_b) &&
      !LastRepricedAt(live_.reprice_valid, live_.last_b)) {
    SwapAlternateBasis();
  }
  // Re-price the RHS under the cached factorization: B⁻¹b' — incremental
  // against the previous re-price when the factorization is unchanged
  // (O(rows × moved coordinates)), one fresh FTRAN otherwise. No pivots,
  // no matrix rebuild either way (see RepriceNormalized).
  RepriceNormalized();
  // Memoized scan: an unchanged x_basic that already passed the scan
  // below passes it again — rescanning identical bits is pure overhead.
  if (rhs_unchanged_ && live_.witness_scan_ok) {
    return ExtractOptimal(LpEvalPath::kWitness, result, /*repeat=*/true);
  }

  ScanVerdict verdict = ScanBasics();
  if (verdict != ScanVerdict::kFeasible) {
    // A slot that fails keeps no baseline: re-priced at an RHS it does not
    // serve, it is no use to the exact-repeat check above, and its next
    // turn re-prices with one fresh FTRAN.
    live_.witness_scan_ok = false;
    live_.reprice_valid = false;
    if (has_alt_basis_) {
      // The second cached basis is optimal too (costs never change, so it
      // is still dual feasible); if it is primal feasible here it serves
      // this RHS as a witness. If not, the dual simplex below repairs it —
      // the least recently used of the two — and the live one stays
      // cached.
      SwapAlternateBasis();
      RepriceNormalized();
      verdict = ScanBasics();
    } else if (verdict == ScanVerdict::kInfeasible) {
      // First repair on this matrix: keep the basis being repaired from.
      StashAlternateBasis();
    }
  }
  switch (verdict) {
    case ScanVerdict::kArtificial:
      // A basic artificial forced away from zero means the cached basis
      // cannot represent this RHS at all (a previously-redundant row
      // became inconsistent); only a cold solve can decide feasibility.
      return SolveFromScratch(rhs, result);
    case ScanVerdict::kFeasible:
      // Witness reuse: the basis is still optimal; zero pivots needed.
      live_.witness_scan_ok = true;
      return ExtractOptimal(LpEvalPath::kWitness, result);
    case ScanVerdict::kInfeasible:
      break;
  }
  live_.witness_scan_ok = false;

  switch (RunDualSimplex()) {
    case DualOutcome::kOptimal:
      return ExtractOptimal(LpEvalPath::kWarm, result);
    case DualOutcome::kInfeasible:
    case DualOutcome::kIterationLimit:
      // A dual ray certifies primal infeasibility in exact arithmetic, but
      // a cold two-phase solve is cheap insurance against drift in the
      // warmed factorization — and also covers the dual-simplex stall.
      return SolveFromScratch(rhs, result);
  }
  return SolveFromScratch(rhs, result);  // unreachable
}

LpResult RevisedSimplex::ResolveWithRhs(const std::vector<double>& rhs) {
  LpResult result;
  kernel_base_ = g_lp_kernel_counters;
  stats_.ResetPivots();
  if (!has_basis_) {
    SolveFromScratch(rhs, result);
    return result;
  }
  iterations_ = 0;
  numerical_failure_ = false;
  max_iterations_ = MaxIterations();
  ResolveCascade(rhs, result);
  return result;
}

bool RevisedSimplex::AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                                        const std::vector<double>& rhs,
                                        LpResult& result) {
  const int k = static_cast<int>(rows.size());
  const int new_rows = rows_ + k;
  // Decline checks run strictly before any mutation (the contract lets
  // the caller fall back to a cold rebuild on false).
  if (k == 0 || !has_basis_ || numerical_failure_ || !live_.lu.factorized() ||
      first_art_ != cols_ ||
      static_cast<int>(rhs.size()) != new_rows) {
    return false;
  }
  // Each appended row must normalize (same rule as NormalizeRows) to a <=
  // row, whose slack can enter the basis directly; anything needing an
  // artificial breaks the slacks-are-the-tail column layout.
  std::vector<double> new_sign(k, 1.0);
  for (int i = 0; i < k; ++i) {
    const double b = rhs[rows_ + i];
    LpSense s = rows[i].sense;
    if (b < 0.0 || (s == LpSense::kGe && b == 0.0)) {
      new_sign[i] = -1.0;
      s = s == LpSense::kLe ? LpSense::kGe
          : s == LpSense::kGe ? LpSense::kLe
                              : LpSense::kEq;
    }
    if (s != LpSense::kLe) return false;
  }

  // Commit point: from here every path produces a result (worst case an
  // internal cold re-solve of the grown problem).
  kernel_base_ = g_lp_kernel_counters;
  stats_.ResetPivots();
  stats_.row_appends += k;
  for (const LpConstraint& c : rows) {
    problem_.AddConstraint(c.terms, c.sense, c.rhs);
  }

  // Scatter the sign-normalized new rows into the existing structural
  // columns, then append one unit slack column per row at the tail of the
  // column space (no artificials exist, so the global numbering —
  // structural, then slacks — is preserved).
  std::vector<std::vector<std::pair<int, double>>> row_entries(k);
  for (int i = 0; i < k; ++i) {
    row_entries[i].reserve(rows[i].terms.size());
    for (const LpTerm& term : rows[i].terms) {
      row_entries[i].emplace_back(term.var, new_sign[i] * term.coef);
    }
  }
  a_.AppendRows(k, row_entries);
  for (int i = 0; i < k; ++i) {
    a_.AppendColumn({{rows_ + i, 1.0}});
    row_sign_.push_back(new_sign[i]);
    live_.basis.push_back(cols_ + i);
  }
  const int first_new_row = rows_;
  rows_ = new_rows;
  cols_ += k;
  first_art_ = cols_;
  MarkBasisChanged();
  live_.in_basis.resize(cols_, kNoCol);
  for (int i = 0; i < k; ++i) live_.in_basis[live_.basis[first_new_row + i]] =
      first_new_row + i;
  phase2_cost_.resize(cols_, 0.0);

  // Re-layout the arena scratch for the larger row count (the B⁻¹ pool is
  // rows_², so growth re-allocates it regardless); nothing in it needs
  // preserving.
  LayoutScratch();

  live_.b.resize(rows_);
  for (int i = 0; i < rows_; ++i) live_.b[i] = NormalizedRhs(i, rhs);

  // Grow the LU factorization by the bordered slack columns; refactorize
  // when the growth is refused (degenerate layout) or the appended fill
  // trips the budget. The grown basis [[B,0],[C,I]] is
  // nonsingular whenever B was, so a refactorization failure here is a
  // genuine numerical breakdown — handled by the cold fallback below.
  iterations_ = 0;
  numerical_failure_ = false;
  max_iterations_ = MaxIterations();
  bool factor_ok = live_.lu.AppendBorderedRows(a_, live_.basis, first_new_row);
  if (factor_ok && live_.lu.NeedsRefactorize()) factor_ok = false;
  if (!factor_ok) {
    ++stats_.append_refactorizations;
    ++stats_.refactorizations;
    if (!live_.lu.Factorize(a_, live_.basis)) {
      SolveFromScratch(rhs, result);
      return true;
    }
  }
  live_.x_basic = live_.b;
  live_.lu.Ftran(live_.x_basic);

  // The extended basis is dual feasible by construction — the new slacks
  // cost 0 and the new rows' duals are 0, so every reduced cost of the
  // previous optimum is unchanged — and the only primal infeasibilities
  // are the appended rows the old optimum violates. Dual simplex repairs
  // exactly those.
  const int dual_before = stats_.dual_pivots;
  const DualOutcome outcome = RunDualSimplex();
  stats_.dual_repair_pivots += stats_.dual_pivots - dual_before;
  switch (outcome) {
    case DualOutcome::kOptimal:
      ExtractOptimal(LpEvalPath::kWarm, result);
      return true;
    case DualOutcome::kInfeasible:
    case DualOutcome::kIterationLimit:
      // Same insurance as ResolveCascade: decide infeasibility (or repair
      // a numerical stall) with a cold solve of the grown problem.
      SolveFromScratch(rhs, result);
      return true;
  }
  SolveFromScratch(rhs, result);  // unreachable
  return true;
}

void RevisedSimplex::ResolveWithRhsBatch(
    std::span<const std::vector<double>> rhs_batch,
    std::vector<LpResult>& out) {
  // Each column runs the same ResolveCascade as the scalar path — the
  // batch contract (lp/tableau.h) promises results identical to the
  // scalar sequence. What the block amortizes: every witness-valid column
  // is one incremental re-price (or FTRAN) through the same cached
  // factorization plus a read of the shared cached duals (the cost-row
  // BTRAN ran once, at the solve that cached the basis), with no per-call
  // dispatch or limit recomputation in between — and the results land in
  // the caller's reused vector, so the per-column x/duals allocations of
  // the old value-returning path are gone too.
  out.resize(rhs_batch.size());
  const int batch_max_iterations = MaxIterations();
  for (std::size_t c = 0; c < rhs_batch.size(); ++c) {
    LpResult& result = out[c];
    kernel_base_ = g_lp_kernel_counters;
    stats_.ResetPivots();
    if (!has_basis_) {
      // First solve, or a stale column above lost the basis: cold solve,
      // exactly as the scalar cascade would.
      SolveFromScratch(rhs_batch[c], result);
      continue;
    }
    iterations_ = 0;
    numerical_failure_ = false;
    max_iterations_ = batch_max_iterations;
    ResolveCascade(rhs_batch[c], result);
  }
}

void RevisedSimplex::ResolveWithRhsBatchRelaxed(
    std::span<const std::vector<double>> rhs_batch,
    std::vector<LpResult>& out) {
  if (!has_basis_) {
    ResolveWithRhsBatch(rhs_batch, out);
    return;
  }
  out.resize(rhs_batch.size());
  // Pass 1: witness-only, against the pinned current basis and then, for
  // the columns it cannot serve, against the pinned second cached basis.
  // No pivots happen here, so each factorization — and with it the
  // B⁻¹-column memo feeding the incremental re-price — stays valid for
  // every column of its sweep. A column neither basis serves
  // (primal-infeasible x, or a basic artificial forced off zero) is
  // deferred, not pivoted: the witness verdicts of the remaining columns
  // do not depend on it.
  stale_cols_.resize(rhs_batch.size());
  for (std::size_t c = 0; c < rhs_batch.size(); ++c) stale_cols_[c] = c;
  WitnessSweep(rhs_batch, out, 0);
  if (has_alt_basis_ && !stale_cols_.empty()) {
    SwapAlternateBasis();
    WitnessSweep(rhs_batch, out, 0);
  }
  // Pass 2: the deferred columns, grouped by the basis that serves them.
  // A batch's RHS columns cluster around a handful of optimal bases, so
  // after each pivot episode (one deferred column run through the full
  // scalar cascade) the repaired basis typically covers several of the
  // columns still waiting — sweeping them with the same witness test as
  // pass 1 turns O(stale) pivot episodes into O(distinct bases).
  // Objectives still match the scalar sequence's (same LP, same RHS); the
  // basis a column is read off may legitimately differ.
  std::size_t head = 0;
  while (head < stale_cols_.size()) {
    const std::size_t c = stale_cols_[head++];
    LpResult& result = out[c];
    kernel_base_ = g_lp_kernel_counters;
    stats_.ResetPivots();
    if (!has_basis_) {
      SolveFromScratch(rhs_batch[c], result);
      continue;
    }
    iterations_ = 0;
    numerical_failure_ = false;
    max_iterations_ = MaxIterations();
    ResolveCascade(rhs_batch[c], result);
    if (!has_basis_) continue;
    if (result.status == LpStatus::kOptimal && !live_.reprice_valid &&
        options_.perturb == 0.0) {
      // The episode pivoted (a still-valid baseline skips this): re-seed
      // the incremental re-price baseline from the cascade's own basics —
      // x_basic is B⁻¹b_ for the repaired basis, maintained through the
      // pivot sweeps — so the witness sweep below prices the remaining
      // deferred columns incrementally instead of opening with a full
      // FTRAN. Drift inherited from the sweeps is bounded the same way
      // theirs is (refactorization cadence), and kFullRepriceInterval
      // still forces periodic fresh FTRANs.
      for (int i = 0; i < rows_; ++i) {
        live_.x_reprice[i] = static_cast<double>(live_.x_basic[i]);
        live_.last_b[i] = static_cast<double>(live_.b[i]);
      }
      live_.x_basic_stale = false;
      live_.reprice_valid = true;
      live_.reprices_since_full = 0;
    }
    // Serve every remaining deferred column the repaired basis already
    // covers; the rest wait for the next episode.
    WitnessSweep(rhs_batch, out, head);
  }
}

void RevisedSimplex::WitnessSweep(
    std::span<const std::vector<double>> rhs_batch,
    std::vector<LpResult>& out, std::size_t from) {
  const int max_iterations = MaxIterations();
  std::size_t keep = from;
  for (std::size_t r = from; r < stale_cols_.size(); ++r) {
    const std::size_t c = stale_cols_[r];
    LpResult& result = out[c];
    kernel_base_ = g_lp_kernel_counters;
    stats_.ResetPivots();
    iterations_ = 0;
    numerical_failure_ = false;
    max_iterations_ = max_iterations;
    NormalizeRhs(rhs_batch[c]);
    RepriceNormalized();
    if (rhs_unchanged_ && live_.witness_scan_ok) {
      ExtractOptimal(LpEvalPath::kWitness, result, /*repeat=*/true);
      continue;
    }
    if (ScanBasics() == ScanVerdict::kFeasible) {
      live_.witness_scan_ok = true;
      ExtractOptimal(LpEvalPath::kWitness, result);
      continue;
    }
    live_.witness_scan_ok = false;
    stale_cols_[keep++] = c;
  }
  stale_cols_.resize(keep);
}

}  // namespace lpb
