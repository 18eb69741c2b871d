#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "exec/hash_join.h"
#include "optimizer/join_order.h"
#include "query/parser.h"
#include "relation/catalog.h"

namespace lpb {
namespace {

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

Relation UnaryRelation(const std::string& name, Value rows) {
  Relation r(name, {"a"});
  for (Value i = 0; i < rows; ++i) r.AddRow({i});
  return r;
}

uint64_t PeakIntermediate(const HashJoinStats& s) {
  uint64_t m = 0;
  for (uint64_t v : s.intermediate_sizes) m = std::max(m, v);
  return m;
}

bool IsPermutation(const std::vector<int>& order, int n) {
  if (static_cast<int>(order.size()) != n) return false;
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int a : order) {
    if (a < 0 || a >= n || seen[static_cast<size_t>(a)]) return false;
    seen[static_cast<size_t>(a)] = true;
  }
  return true;
}

// The cost-model arithmetic, recomputed independently of JoinCost so the
// exhaustive cross-checks don't inherit an optimizer bug.
double OperatorCost(const JoinOrderOptions& opt, double lrows, double rrows) {
  const double build = std::min(lrows, rrows);
  const double probe = std::max(lrows, rrows);
  const double hash =
      opt.hash_build_weight * build + opt.hash_probe_weight * probe;
  const double merge = opt.sort_weight * (lrows * std::log2(lrows + 2.0) +
                                          rrows * std::log2(rrows + 2.0));
  return std::min(hash, merge);
}

// Exhaustive minimum total cost over every bushy plan shape for `s`,
// pricing subplans with the same memoized cardinalities the DP used (so
// the check compares plan *choice*, not LP probe noise).
double BestBushyCost(AtomSet s, const std::map<AtomSet, DpEntry>& memo,
                     const JoinOrderOptions& opt,
                     std::map<AtomSet, double>& best) {
  auto cached = best.find(s);
  if (cached != best.end()) return cached->second;
  const DpEntry& e = memo.at(s);
  if (e.leaf_atom >= 0) return best[s] = e.rows;
  double out = std::numeric_limits<double>::infinity();
  const AtomSet low = VarBit(LowestVar(s));
  for (AtomSet left = (s - 1) & s; left != 0; left = (left - 1) & s) {
    if (!Intersects(left, low)) continue;  // each unordered pair once
    const AtomSet right = s & ~left;
    auto lit = memo.find(left);
    auto rit = memo.find(right);
    if (lit == memo.end() || rit == memo.end()) continue;
    if (!Intersects(lit->second.vars, rit->second.vars)) continue;
    const double c = BestBushyCost(left, memo, opt, best) +
                     BestBushyCost(right, memo, opt, best) +
                     OperatorCost(opt, lit->second.rows, rit->second.rows) +
                     e.rows;
    out = std::min(out, c);
  }
  return best[s] = out;
}

// Exhaustive minimum peak intermediate over every left-deep order whose
// prefixes stay connected (exactly the orders the DP searches): the
// driving leaf plus every prefix join output, cardinalities from the memo.
double BestLeftDeepPeak(const Query& q,
                        const std::map<AtomSet, DpEntry>& memo) {
  const int m = q.num_atoms();
  std::vector<int> perm(static_cast<size_t>(m));
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    AtomSet mask = 0;
    double peak = 0.0;
    bool ok = true;
    for (int i = 0; i < m; ++i) {
      mask |= VarBit(perm[static_cast<size_t>(i)]);
      auto it = memo.find(mask);
      if (it == memo.end()) {  // disconnected prefix: not a DP order
        ok = false;
        break;
      }
      peak = std::max(peak, it->second.rows);
    }
    if (ok) best = std::min(best, peak);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(JoinOrderOptimizer, TotalCostOptimalVsExhaustiveOnSmallJobQueries) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 6) continue;
    JoinOrderOptimizer dp(q, model);
    const JoinPlan& plan = dp.Optimize();
    ASSERT_FALSE(plan.empty()) << q.name();
    std::map<AtomSet, double> best;
    const double exhaustive = BestBushyCost(
        FullSet(q.num_atoms()), dp.memo(), JoinOrderOptions{}, best);
    // Exact optimality up to the DP's eps-tie rule (costs within ~1e-5
    // relative are ties, so backend solver noise can't flip plans).
    EXPECT_NEAR(plan.cost(), exhaustive, exhaustive * 1e-4) << q.name();
    EXPECT_GE(plan.cost(), exhaustive * (1.0 - 1e-12)) << q.name();
    EXPECT_TRUE(IsPermutation(plan.AtomOrder(), q.num_atoms())) << q.name();
    ++tested;
  }
  EXPECT_GE(tested, 3);
}

TEST(JoinOrderOptimizer, PeakObjectiveOptimalVsExhaustiveOrders) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  JoinOrderOptions opt;
  opt.left_deep = true;
  opt.objective = CostObjective::kPeakIntermediate;
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 6) continue;
    JoinOrderOptimizer dp(q, model, opt);
    const JoinPlan& plan = dp.Optimize();
    const double exhaustive = BestLeftDeepPeak(q, dp.memo());
    EXPECT_NEAR(plan.cost(), exhaustive, exhaustive * 1e-4) << q.name();
    EXPECT_GE(plan.cost(), exhaustive * (1.0 - 1e-12)) << q.name();
    ++tested;
  }
  EXPECT_GE(tested, 3);
}

TEST(JoinOrderOptimizer, OneAdvisorBatchPerDpLevel) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 8) continue;
    const AdvisorMetrics before = advisor.metrics();
    JoinOrderOptimizer dp(q, model);
    dp.Optimize();
    const AdvisorMetrics after = advisor.metrics();
    const OptimizerStats& stats = dp.stats();
    // Exactly one EstimateLog2Batch call per DP level, covering every
    // candidate of that level — verified against the advisor's own
    // counters, not just the optimizer's bookkeeping.
    EXPECT_EQ(after.batch_calls - before.batch_calls,
              static_cast<uint64_t>(stats.dp_levels))
        << q.name();
    EXPECT_EQ(after.batch_probes - before.batch_probes, stats.probes)
        << q.name();
    EXPECT_EQ(stats.batch_calls, static_cast<uint64_t>(stats.dp_levels));
    EXPECT_EQ(stats.dp_levels, q.num_atoms()) << q.name();
    uint64_t level_sum = 0;
    for (uint64_t p : stats.probes_per_level) level_sum += p;
    EXPECT_EQ(level_sum, stats.probes);
    ++tested;
    if (tested >= 4) break;
  }
  EXPECT_GE(tested, 2);
}

// The two pricing rules pivot along different paths and can land on
// different (equal-value) optimal bases; plans must not notice.
TEST(JoinOrderOptimizer, PlanBitwiseStableAcrossPricingRules) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  AdvisorOptions dantzig_opts;
  dantzig_opts.engine.simplex.pricing = PricingRule::kDantzig;
  AdvisorOptions devex_opts;
  devex_opts.engine.simplex.pricing = PricingRule::kDevex;
  CardinalityAdvisor dantzig_advisor(wl.catalog, dantzig_opts);
  CardinalityAdvisor devex_advisor(wl.catalog, devex_opts);
  AdvisorCardinalityModel dantzig_model(dantzig_advisor);
  AdvisorCardinalityModel devex_model(devex_advisor);
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 7) continue;
    JoinOrderOptimizer dantzig_dp(q, dantzig_model);
    JoinOrderOptimizer devex_dp(q, devex_model);
    const JoinPlan& dantzig_plan = dantzig_dp.Optimize();
    const JoinPlan& devex_plan = devex_dp.Optimize();
    ASSERT_EQ(dantzig_plan.nodes.size(), devex_plan.nodes.size()) << q.name();
    for (size_t i = 0; i < dantzig_plan.nodes.size(); ++i) {
      const JoinPlan::Node& a = dantzig_plan.nodes[i];
      const JoinPlan::Node& b = devex_plan.nodes[i];
      EXPECT_EQ(a.atoms, b.atoms) << q.name() << " node " << i;
      EXPECT_EQ(a.left, b.left) << q.name() << " node " << i;
      EXPECT_EQ(a.right, b.right) << q.name() << " node " << i;
      EXPECT_EQ(a.leaf_atom, b.leaf_atom) << q.name() << " node " << i;
      EXPECT_EQ(a.method, b.method) << q.name() << " node " << i;
    }
    ++tested;
    if (tested >= 3) break;
  }
  EXPECT_GE(tested, 2);
}

TEST(JoinOrderOptimizer, PeakNotWorseThanGreedyOnJobScoringSet) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  JoinOrderOptions opt;
  opt.left_deep = true;
  opt.objective = CostObjective::kPeakIntermediate;
  int scored = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 8) continue;
    JoinOrderOptimizer dp(q, model, opt);
    const JoinPlan& plan = dp.Optimize();
    const std::vector<int> greedy = GreedyJoinOrder(q, model);
    // The greedy order's prefixes are connected, so the order lives inside
    // the DP's left-deep search space: the DP's estimated peak can never
    // exceed greedy's. Verify on the *executed* intermediates.
    HashJoinStats dp_run = CountByHashJoin(q, wl.catalog, plan.AtomOrder());
    HashJoinStats greedy_run = CountByHashJoin(q, wl.catalog, greedy);
    ASSERT_TRUE(dp_run.ok) << q.name() << ": " << dp_run.error;
    ASSERT_TRUE(greedy_run.ok) << q.name() << ": " << greedy_run.error;
    EXPECT_EQ(dp_run.output_count, greedy_run.output_count) << q.name();
    EXPECT_LE(PeakIntermediate(dp_run), PeakIntermediate(greedy_run))
        << q.name();
    ++scored;
  }
  EXPECT_GE(scored, 5);
}

TEST(JoinOrderOptimizer, MemoAccountingOnThreeAtomChain) {
  Catalog db;
  Relation r("R", {"a", "b"});
  for (Value i = 0; i < 4; ++i) r.AddRow({i, i});
  db.Add(std::move(r));
  Relation s("S", {"a", "b"});
  for (Value i = 0; i < 6; ++i) s.AddRow({i, i});
  db.Add(std::move(s));
  Relation t("T", {"a", "b"});
  for (Value i = 0; i < 8; ++i) t.AddRow({i, i});
  db.Add(std::move(t));
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,W)");
  TraditionalCardinalityModel model(db);
  JoinOrderOptimizer dp(q, model);
  dp.Optimize();
  const OptimizerStats& stats = dp.stats();
  // Connected subsets of the chain R—S—T: three singletons, {R,S}, {S,T},
  // and the full set. {R,T} is disconnected — never probed, never
  // memoized.
  EXPECT_EQ(stats.dp_levels, 3);
  EXPECT_EQ(stats.batch_calls, 3u);
  EXPECT_EQ(stats.probes, 6u);
  ASSERT_EQ(stats.probes_per_level.size(), 3u);
  EXPECT_EQ(stats.probes_per_level[0], 3u);
  EXPECT_EQ(stats.probes_per_level[1], 2u);
  EXPECT_EQ(stats.probes_per_level[2], 1u);
  EXPECT_EQ(stats.memo_entries, 6u);
  EXPECT_EQ(dp.memo().count((1u << 0) | (1u << 2)), 0u);
  // Best-partition scans: one canonical pair each for {R,S} and {S,T};
  // three canonical pairs for the full set, of which ({R,T}, {S}) misses
  // the memo — so 5 pairs examined, 4 with both halves memoized.
  EXPECT_EQ(stats.partitions_tried, 5u);
  EXPECT_EQ(stats.memo_hits, 4u);
  EXPECT_EQ(stats.cross_partitions, 0u);
}

TEST(JoinOrderOptimizer, DisconnectedQueryPlansCheapestCrossProducts) {
  Catalog db;
  db.Add(UnaryRelation("A", 3));
  db.Add(UnaryRelation("Big", 50));
  db.Add(UnaryRelation("Small", 2));
  Query q = Parse("A(X), Big(Y), Small(Z)");
  TraditionalCardinalityModel model(db);
  JoinOrderOptions opt;
  opt.left_deep = true;
  JoinOrderOptimizer dp(q, model, opt);
  const JoinPlan& plan = dp.Optimize();
  ASSERT_FALSE(plan.empty());
  EXPECT_GT(dp.stats().cross_partitions, 0u);
  EXPECT_TRUE(IsPermutation(plan.AtomOrder(), 3));
  // Every join in a fully disconnected query is a cross product, and the
  // total-cost objective defers the big relation to the last join (its
  // only appearance in an intermediate is the unavoidable final output).
  EXPECT_EQ(plan.AtomOrder().back(), 1);
  HashJoinStats run = CountByHashJoin(q, db, plan.AtomOrder());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.output_count, 3u * 50u * 2u);
}

TEST(GreedyJoinOrder, PicksCheapestDisconnectedExtension) {
  Catalog db;
  Relation r("R", {"a", "b"});
  for (Value i = 0; i < 4; ++i) r.AddRow({i, i});
  db.Add(std::move(r));
  Relation s("S", {"a", "b"});
  for (Value i = 0; i < 5; ++i) s.AddRow({i, i});
  db.Add(std::move(s));
  db.Add(UnaryRelation("Big", 50));
  db.Add(UnaryRelation("Small", 2));
  // R—S are connected; Big and Small are separate components. After the
  // connected prefix is exhausted, the old example grabbed
  // remaining.front() (Big). The fix batches all remaining atoms and
  // takes the min-bound one: Small first.
  Query q = Parse("R(X,Y), S(Y,Z), Big(W), Small(V)");
  TraditionalCardinalityModel model(db);
  const std::vector<int> order = GreedyJoinOrder(q, model, /*first_atom=*/0);
  ASSERT_TRUE(IsPermutation(order, 4));
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // the only connected extension
  EXPECT_EQ(order[2], 3);  // cheapest disconnected extension, not Big
  EXPECT_EQ(order[3], 2);
}

TEST(JoinOrderOptimizer, EmptyAndSingleAtomQueries) {
  Catalog db;
  db.Add(UnaryRelation("A", 7));
  TraditionalCardinalityModel model(db);
  Query empty("empty");
  JoinOrderOptimizer empty_dp(empty, model);
  EXPECT_TRUE(empty_dp.Optimize().empty());
  EXPECT_EQ(empty_dp.stats().atoms, 0);

  Query single = Parse("A(X)");
  JoinOrderOptimizer single_dp(single, model);
  const JoinPlan& plan = single_dp.Optimize();
  ASSERT_EQ(plan.nodes.size(), 1u);
  EXPECT_EQ(plan.AtomOrder(), std::vector<int>{0});
  EXPECT_DOUBLE_EQ(plan.log2_rows(), std::log2(7.0));
}

TEST(JoinOrderOptimizer, WideQueryFallsBackToGreedyChain) {
  Catalog db;
  db.Add(UnaryRelation("A", 5));
  Query q("wide");
  for (int i = 0; i <= kMaxAtoms; ++i) q.AddAtom("A", {"X"});
  ASSERT_GT(q.num_atoms(), kMaxAtoms);
  TraditionalCardinalityModel model(db);
  JoinOrderOptimizer dp(q, model);
  const JoinPlan& plan = dp.Optimize();
  EXPECT_TRUE(IsPermutation(plan.AtomOrder(), q.num_atoms()));
  // A left-deep chain over m atoms: m leaves + m-1 joins.
  EXPECT_EQ(plan.nodes.size(),
            static_cast<size_t>(2 * q.num_atoms() - 1));
  HashJoinStats run = CountByHashJoin(q, db, plan.AtomOrder());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.output_count, 5u);
}

TEST(JoinOrderOptimizer, InducedSubqueryKeepsVariableBindings) {
  Catalog db;
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  Query sub = InducedSubquery(q, (1u << 0) | (1u << 2));
  ASSERT_EQ(sub.num_atoms(), 2);
  EXPECT_EQ(sub.atom(0).relation, "R");
  EXPECT_EQ(sub.atom(1).relation, "T");
  // X appears in both atoms and must stay one variable in the subquery.
  EXPECT_EQ(sub.num_vars(), 3);
  EXPECT_TRUE(Intersects(sub.atom(0).var_set(), sub.atom(1).var_set()));
}

}  // namespace
}  // namespace lpb
