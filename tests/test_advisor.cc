#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "datagen/job_gen.h"
#include "exec/generic_join.h"
#include "exec/yannakakis.h"
#include "query/parser.h"
#include "bounds/normal_engine.h"
#include "estimator/advisor.h"
#include "stats/collector.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

Catalog SmallDb(uint64_t seed = 3) {
  Catalog db;
  Rng rng(seed);
  ZipfSampler zipf(15, 0.5);
  for (const char* name : {"R", "S", "T"}) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < 100; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

TEST(Advisor, MatchesCollectorPipeline) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)"}) {
    Query q = Parse(text);
    CollectorOptions copt;
    copt.norms = AdvisorOptions{}.norms;
    auto stats = CollectStatistics(q, db, copt);
    auto expected = LpNormBound(q.num_vars(), stats);
    EXPECT_NEAR(advisor.EstimateLog2(q), expected.log2_bound, 1e-9) << text;
  }
}

TEST(Advisor, EstimatesAreSound) {
  Catalog db = SmallDb(7);
  CardinalityAdvisor advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,W)", "R(X,Y), T(Y,X)"}) {
    Query q = Parse(text);
    const uint64_t truth = CountJoin(q, db);
    if (truth == 0) continue;
    EXPECT_GE(advisor.EstimateLog2(q),
              std::log2(static_cast<double>(truth)) - 1e-6)
        << text;
  }
}

TEST(Advisor, CacheIsSharedAcrossQueries) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  const size_t after_first = advisor.CacheSize();
  EXPECT_GT(after_first, 0u);
  // The triangle reuses R's and S's sequences; only T's are new.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  const size_t after_second = advisor.CacheSize();
  EXPECT_GT(after_second, after_first);
  // Re-running adds nothing.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  EXPECT_EQ(advisor.CacheSize(), after_second);
}

TEST(Advisor, SelfJoinSharesCacheEntries) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), R(Y,Z)"));
  // Two atoms over the same relation with the same column splits: the
  // cache holds entries for R only (cardinality + two conditionals).
  EXPECT_LE(advisor.CacheSize(), 3u);
}

TEST(Advisor, InvalidateDropsOnlyThatRelation) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  const size_t full = advisor.CacheSize();
  advisor.Invalidate("R");
  EXPECT_LT(advisor.CacheSize(), full);
  EXPECT_GT(advisor.CacheSize(), 0u);  // S entries survive
}

TEST(Advisor, ExplainProducesCertificate) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  auto explanation = advisor.Explain(q);
  ASSERT_TRUE(explanation.bound.ok());
  double certified = 0.0;
  for (size_t i = 0; i < explanation.stats.size(); ++i) {
    certified +=
        explanation.bound.weights[i] * explanation.stats[i].log_b;
    EXPECT_FALSE(explanation.stats[i].label.empty());
  }
  EXPECT_NEAR(certified, explanation.bound.log2_bound, 1e-5);
}

TEST(Advisor, JobWorkloadThroughput) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  CardinalityAdvisor advisor(wl.catalog);
  int sound = 0;
  for (const Query& q : wl.queries) {
    const double est = advisor.EstimateLog2(q);
    auto truth = CountAcyclic(q, wl.catalog);
    ASSERT_TRUE(truth.has_value());
    if (*truth == 0 ||
        est >= std::log2(static_cast<double>(*truth)) - 1e-6) {
      ++sound;
    }
  }
  EXPECT_EQ(sound, static_cast<int>(wl.queries.size()));
  // The cache holds one entry per (relation, column split), far fewer than
  // 33 x per-query statistics.
  EXPECT_LT(advisor.CacheSize(), 100u);
}

TEST(Advisor, RepeatedTemplatesReuseCompiledWitness) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  const double first = advisor.EstimateLog2(q);
  AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates, 1u);
  EXPECT_EQ(m.compiled_misses, 1u);
  EXPECT_EQ(m.cold_solves, 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(advisor.EstimateLog2(q), first, 1e-9);
  }
  m = advisor.metrics();
  EXPECT_EQ(m.estimates, 6u);
  EXPECT_EQ(m.compiled_hits, 5u);
  // Unchanged statistics keep the cached basis optimal: pure witness reuse.
  EXPECT_EQ(m.witness_hits, 5u);
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
}

TEST(Advisor, SameStructureDifferentRelationsSharesCompiledBound) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  // Same hypergraph + statistic shapes over different relations: one
  // compiled structure, two statistics snapshots.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  advisor.EstimateLog2(Parse("S(X,Y), T(Y,Z)"));
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.compiled_misses, 1u);
  EXPECT_EQ(m.compiled_hits, 1u);
}

TEST(Advisor, ExplainReportsEvalPathAndMetrics) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  auto cold = advisor.Explain(q);
  EXPECT_EQ(cold.bound.eval_path, LpEvalPath::kCold);
  EXPECT_EQ(cold.metrics.compiled_misses, 1u);
  auto warm = advisor.Explain(q);
  EXPECT_EQ(warm.bound.eval_path, LpEvalPath::kWitness);
  EXPECT_EQ(warm.metrics.witness_hits, 1u);
  EXPECT_NEAR(warm.bound.log2_bound, cold.bound.log2_bound, 1e-9);
}

TEST(Advisor, InvalidateRefreshesValuesButKeepsCompiledBounds) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  const double before = advisor.EstimateLog2(q);
  advisor.Invalidate("R");
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);  // structure cache survives
  EXPECT_NEAR(advisor.EstimateLog2(q), before, 1e-9);  // same data: same bound
}

TEST(Advisor, ConcurrentEstimatesAreConsistent) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const std::vector<std::string> texts = {
      "R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)",
      "S(X,Y), T(Y,Z)"};
  std::vector<double> expected;
  for (const auto& text : texts) expected.push_back(
      advisor.EstimateLog2(Parse(text)));

  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t qi = (t + i) % texts.size();
        const double est = advisor.EstimateLog2(Parse(texts[qi]));
        if (std::abs(est - expected[qi]) > 1e-9) ++mismatches[t];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates,
            static_cast<uint64_t>(kThreads * kIters + texts.size()));
  EXPECT_EQ(m.compiled_hits + m.compiled_misses, m.estimates);
  EXPECT_GT(m.witness_hits, 0u);
}

TEST(Advisor, EstimateLinearSpace) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  EXPECT_NEAR(std::log2(advisor.Estimate(q)), advisor.EstimateLog2(q), 1e-9);
}

// A bad atom reaches the catalog only on a statistics miss, and both kinds
// used to take the process down there: an unknown relation made
// Catalog::Get dereference end() (std::bad_alloc in the default build),
// and an atom wider than its relation read past each row (a segfault for
// title(X,Y,Z,W,V)). Now the query resolves to quiet NaN on every entry
// point, is not counted as an estimate, and leaves the rest alone.
void ExpectBadQueryIsNaN(CardinalityAdvisor& advisor, const Query& bad,
                         const Query& good) {
  const double good_log2 = advisor.EstimateLog2(good);
  ASSERT_TRUE(std::isfinite(good_log2));
  const uint64_t estimates = advisor.metrics().estimates;
  EXPECT_TRUE(std::isnan(advisor.EstimateLog2(bad))) << bad.ToString();
  EXPECT_TRUE(std::isnan(advisor.Estimate(bad))) << bad.ToString();
  EXPECT_TRUE(std::isnan(advisor.Explain(bad).bound.log2_bound));
  const std::vector<std::vector<double>> what_if = {{1.0, 2.0}};
  const std::vector<double> probes = advisor.EstimateLog2Batch(bad, what_if);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_TRUE(std::isnan(probes[0]));
  const std::vector<double> mixed =
      advisor.EstimateLog2Batch(std::vector<Query>{good, bad, good});
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_NEAR(mixed[0], good_log2, 1e-9);
  EXPECT_TRUE(std::isnan(mixed[1]));
  EXPECT_NEAR(mixed[2], good_log2, 1e-9);
  // Only the two good batch entries (and Explain's failed call, which
  // evaluates nothing) touch the counters.
  EXPECT_EQ(advisor.metrics().estimates, estimates + 2);
  EXPECT_NEAR(advisor.EstimateLog2(good), good_log2, 1e-9);
}

TEST(Advisor, UnknownRelationYieldsNaN) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  ExpectBadQueryIsNaN(advisor, Parse("R(X,Y), Missing(Y,Z)"),
                      Parse("R(X,Y), S(Y,Z)"));
}

TEST(Advisor, ArityMismatchYieldsNaN) {
  JobWorkloadOptions options;
  options.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(options);
  CardinalityAdvisor advisor(wl.catalog);
  ExpectBadQueryIsNaN(advisor, Parse("title(X,Y,Z,W,V)"),
                      Parse("title(X,Y)"));
  // Narrower than the relation is a mismatch too.
  Catalog db = SmallDb();
  CardinalityAdvisor small(db);
  ExpectBadQueryIsNaN(small, Parse("R(X), S(X,Y)"), Parse("R(X,Y), S(Y,Z)"));
}

// The arity is a property of the atom, not of the statistics key: R(X)
// and R(X,X) share the key of R's first column, and in one batch on a
// cold store only the first is bad.
TEST(Advisor, BadAtomSharingAStatisticKeyLeavesTheGoodQueryAlone) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const Query bad = Parse("R(X)");
  const Query good = Parse("R(X,X)");
  const std::vector<double> got =
      advisor.EstimateLog2Batch(std::vector<Query>{bad, good});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(std::isnan(got[0]));
  CardinalityAdvisor reference(db);
  EXPECT_NEAR(got[1], reference.EstimateLog2(good), 1e-9);
}

// The warm-store order of the same pair: once R(X,X) has cached the
// shared key, R(X) hits it, and the hit itself must reject the atom.
TEST(Advisor, BadAtomHittingAWarmStatisticIsStillNaN) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const Query bad = Parse("R(X)");
  const Query good = Parse("R(X,X)");
  const double good_log2 = advisor.EstimateLog2(good);
  ASSERT_TRUE(std::isfinite(good_log2));
  const uint64_t misses = advisor.metrics().norm_misses;
  EXPECT_TRUE(std::isnan(advisor.EstimateLog2(bad)));
  EXPECT_TRUE(std::isnan(advisor.Explain(bad).bound.log2_bound));
  const std::vector<double> probes =
      advisor.EstimateLog2Batch(bad, std::vector<std::vector<double>>{{1.0}});
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_TRUE(std::isnan(probes[0]));
  const std::vector<double> got =
      advisor.EstimateLog2Batch(std::vector<Query>{bad, good});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(std::isnan(got[0]));
  EXPECT_NEAR(got[1], good_log2, 1e-9);
  // Every lookup above hit the store: the hits did the rejecting.
  EXPECT_EQ(advisor.metrics().norm_misses, misses);
}

}  // namespace
}  // namespace lpb
