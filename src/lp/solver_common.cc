#include "lp/solver_common.h"

#include <cstdlib>
#include <cstring>

namespace lpb {

NormalizedRows NormalizeRows(const LpProblem& problem,
                             const std::vector<double>& rhs) {
  const int rows = problem.num_constraints();
  NormalizedRows out;
  out.sense.resize(rows);
  out.row_sign.assign(rows, 1.0);
  for (int i = 0; i < rows; ++i) {
    const LpConstraint& c = problem.constraint(i);
    const double b = rhs.empty() ? c.rhs : rhs[i];
    LpSense s = c.sense;
    if (b < 0.0 || (s == LpSense::kGe && b == 0.0)) {
      out.row_sign[i] = -1.0;
      if (s == LpSense::kLe) {
        s = LpSense::kGe;
      } else if (s == LpSense::kGe) {
        s = LpSense::kLe;
      }
    }
    out.sense[i] = s;
    if (s != LpSense::kEq) ++out.num_slack;
    if (s != LpSense::kLe) ++out.num_art;
  }
  return out;
}

double NormalizedRhsEntry(const LpProblem& problem,
                          const std::vector<double>& row_sign, double perturb,
                          int i, const std::vector<double>& rhs) {
  const double b = rhs.empty() ? problem.constraint(i).rhs : rhs[i];
  // Graded degeneracy breaking (see SimplexOptions::perturb).
  return row_sign[i] * b + perturb * (1 + i % 101);
}

const char* PricingRuleName(PricingRule rule) {
  switch (rule) {
    case PricingRule::kDefault:
      return "default";
    case PricingRule::kDantzig:
      return "dantzig";
    case PricingRule::kDevex:
      return "devex";
  }
  return "unknown";
}

PricingRule ResolveLpPricing(const SimplexOptions& options) {
  if (options.pricing != PricingRule::kDefault) return options.pricing;
  // Read the environment on every resolution (not a cached static): tests
  // and experiment drivers flip LPB_LP_PRICING within one process.
  const char* env = std::getenv("LPB_LP_PRICING");
  if (env != nullptr && std::strcmp(env, "devex") == 0) {
    return PricingRule::kDevex;
  }
  // Dantzig remains the default until Devex has soaked in the CI pricing
  // lane (see ROADMAP); unknown values also fall back here.
  return PricingRule::kDantzig;
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kDefault:
      return "default";
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
  }
  return "unknown";
}

SimdMode ResolveSimdMode(const SimplexOptions& options) {
  if (options.simd != SimdMode::kDefault) return options.simd;
  // Like the other knobs, read the environment on every resolution so the
  // SIMD parity tests can flip LPB_LP_SIMD within one process.
  const char* env = std::getenv("LPB_LP_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return SimdMode::kScalar;
  }
  // Results are bit-identical either way, so auto is always safe; unknown
  // values also fall back here.
  return SimdMode::kAuto;
}

const char* CutWarmStartName(CutWarmStart mode) {
  switch (mode) {
    case CutWarmStart::kDefault:
      return "default";
    case CutWarmStart::kOn:
      return "on";
    case CutWarmStart::kOff:
      return "off";
  }
  return "unknown";
}

CutWarmStart ResolveCutWarmStart(const SimplexOptions& options) {
  if (options.cut_warm_start != CutWarmStart::kDefault) {
    return options.cut_warm_start;
  }
  // Like the other knobs, read the environment on every resolution so the
  // warm-vs-cold differential tests can flip LPB_LP_CUT_WARM in-process.
  const char* env = std::getenv("LPB_LP_CUT_WARM");
  if (env != nullptr &&
      (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)) {
    return CutWarmStart::kOff;
  }
  // Warm and cold converge to the same bound (differentially tested), so
  // warm is the default; unknown values also fall back here.
  return CutWarmStart::kOn;
}

const char* LpKernelName(LpKernelId id) {
  switch (id) {
    case kLpKernelAxpy:
      return "axpy_d";
    case kLpKernelDot:
      return "dot_d";
    case kLpKernelNormalizeRhs:
      return "normalize_rhs_d";
    case kLpKernelEqual:
      return "equal_d";
    case kLpKernelGather:
      return "gather_axpy_ld";
    case kLpKernelSweep:
      return "sweep_ld";
    case kLpKernelScale:
      return "scale_ld";
    case kLpKernelFtranBlock:
      return "ftran_block_ld";
    case kNumLpKernels:
      break;
  }
  return "unknown";
}

}  // namespace lpb
