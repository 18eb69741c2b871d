// Property tests for the bound layer, on random hypergraphs over
// Zipf-skewed relations (util/zipf.h).
//
// Three laws every bound engine must obey, checked on compiled bounds:
//   * soundness   — every bound upper-bounds the true join size computed
//                   by the worst-case-optimal join (exec/generic_join.h);
//   * monotonicity — the bound LP is a relaxation in each ℓp-norm input:
//                   raising any single log_b weakly raises the bound,
//                   lowering it weakly lowers it;
//   * dominance   — AGM uses only the cardinality subset of the
//                   statistics, so whenever both bounds apply the AGM
//                   bound is at least the full ℓp-norm bound.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/engine.h"
#include "bounds/normal_engine.h"
#include "exec/generic_join.h"
#include "query/query.h"
#include "relation/catalog.h"
#include "stats/collector.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

// A random hypergraph query over `num_vars` variables: each atom picks 2-3
// distinct variables; every variable is covered by at least one atom (the
// bounds need a finite cover, and CountJoin a full CQ).
Query RandomQuery(Rng& rng, int num_vars, int num_atoms,
                  std::vector<std::string>* rel_names) {
  const char* vars[] = {"V0", "V1", "V2", "V3", "V4", "V5"};
  Query q("random");
  rel_names->clear();
  for (int a = 0; a < num_atoms; ++a) {
    const int arity = 2 + static_cast<int>(rng.Uniform(2));
    std::vector<std::string> atom_vars;
    // A base variable chosen round-robin guarantees coverage.
    atom_vars.push_back(vars[(a * 2) % num_vars]);
    while (static_cast<int>(atom_vars.size()) < arity) {
      const char* v = vars[rng.Uniform(num_vars)];
      bool seen = false;
      for (const std::string& existing : atom_vars) seen |= existing == v;
      if (!seen) atom_vars.push_back(v);
    }
    std::string name = "E" + std::to_string(a);
    rel_names->push_back(name);
    q.AddAtom(name, atom_vars);
  }
  // Cover any variable the round-robin missed.
  VarSet covered = 0;
  for (const Atom& atom : q.atoms()) covered |= atom.var_set();
  for (int v = 0; v < q.num_vars(); ++v) {
    if (!(covered & VarBit(v))) {
      std::string name = "C" + std::to_string(v);
      rel_names->push_back(name);
      q.AddAtom(name, {q.var_name(v)});
    }
  }
  return q;
}

// Zipf-skewed relations matching the query's atom arities: heavy-tailed
// degrees are where the ℓp-norm bounds separate from AGM/PANDA.
Catalog RandomDb(Rng& rng, const Query& q,
                 const std::vector<std::string>& rel_names) {
  Catalog db;
  for (size_t a = 0; a < rel_names.size(); ++a) {
    const Atom& atom = q.atom(static_cast<int>(a));
    std::vector<std::string> attrs;
    for (size_t j = 0; j < atom.vars.size(); ++j) {
      attrs.push_back("c" + std::to_string(j));
    }
    Relation r(rel_names[a], attrs);
    const uint64_t domain = 8 + rng.Uniform(20);
    ZipfSampler zipf(domain, 0.3 + rng.NextDouble());
    const int rows = 30 + static_cast<int>(rng.Uniform(170));
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (size_t j = 0; j < attrs.size(); ++j) row.push_back(zipf.Sample(rng));
      r.AddRow(row);
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

TEST(BoundProperties, EveryBoundUpperBoundsTrueJoinSize) {
  Rng rng(71);
  for (int trial = 0; trial < 12; ++trial) {
    const int num_vars = 3 + static_cast<int>(rng.Uniform(3));
    std::vector<std::string> rel_names;
    Query q = RandomQuery(rng, num_vars, 2 + static_cast<int>(rng.Uniform(3)),
                          &rel_names);
    Catalog db = RandomDb(rng, q, rel_names);
    const uint64_t truth = CountJoin(q, db);
    const double log2_truth =
        truth == 0 ? 0.0 : std::log2(static_cast<double>(truth));
    const auto stats = CollectStatistics(q, db);
    const BoundStructure structure = StructureOf(q.num_vars(), stats);
    const std::vector<double> values = ValuesOf(stats);
    for (const char* engine_name : {"auto", "gamma", "agm", "panda"}) {
      const BoundEngine* engine = FindBoundEngine(engine_name);
      ASSERT_NE(engine, nullptr);
      if (!engine->Supports(structure)) continue;
      auto compiled = engine->Compile(structure);
      const BoundResult bound = compiled->Evaluate(values);
      if (truth == 0) continue;  // any bound is trivially sound
      ASSERT_TRUE(bound.ok() || bound.unbounded())
          << engine_name << " trial " << trial;
      if (bound.unbounded()) continue;
      EXPECT_GE(bound.log2_bound, log2_truth - 1e-6)
          << engine_name << " trial " << trial << " query " << q.ToString();
    }
  }
}

TEST(BoundProperties, BoundIsMonotoneInEachInput) {
  Rng rng(172);
  for (int trial = 0; trial < 6; ++trial) {
    const int num_vars = 3 + static_cast<int>(rng.Uniform(2));
    std::vector<std::string> rel_names;
    Query q = RandomQuery(rng, num_vars, 2 + static_cast<int>(rng.Uniform(2)),
                          &rel_names);
    Catalog db = RandomDb(rng, q, rel_names);
    const auto stats = CollectStatistics(q, db);
    const BoundStructure structure = StructureOf(q.num_vars(), stats);
    const std::vector<double> values = ValuesOf(stats);
    auto compiled = FindBoundEngine("auto")->Compile(structure);
    const BoundResult base = compiled->Evaluate(values);
    ASSERT_TRUE(base.ok()) << "trial " << trial;
    for (size_t i = 0; i < values.size(); ++i) {
      // Loosening statistic i relaxes its constraint: weakly larger
      // bound. Tightening it weakly shrinks the bound. These perturbed
      // re-evaluations also exercise the witness/warm re-solve cascade
      // on the compiled bound.
      std::vector<double> up = values;
      up[i] += 0.75;
      const BoundResult looser = compiled->Evaluate(up);
      ASSERT_TRUE(looser.ok() || looser.unbounded());
      const double loose_bound =
          looser.unbounded() ? kInfNorm : looser.log2_bound;
      EXPECT_GE(loose_bound, base.log2_bound - 1e-6)
          << "stat " << i << " trial " << trial;
      std::vector<double> down = values;
      down[i] = std::max(0.0, down[i] - 0.75);
      const BoundResult tighter = compiled->Evaluate(down);
      if (tighter.ok()) {
        EXPECT_LE(tighter.log2_bound, base.log2_bound + 1e-6)
            << "stat " << i << " trial " << trial;
      }
    }
  }
}

TEST(BoundProperties, AgmDominatesLpNormBound) {
  Rng rng(273);
  int comparable = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int num_vars = 3 + static_cast<int>(rng.Uniform(3));
    std::vector<std::string> rel_names;
    Query q = RandomQuery(rng, num_vars, 2 + static_cast<int>(rng.Uniform(3)),
                          &rel_names);
    Catalog db = RandomDb(rng, q, rel_names);
    const auto stats = CollectStatistics(q, db);
    const BoundStructure structure = StructureOf(q.num_vars(), stats);
    const std::vector<double> values = ValuesOf(stats);
    auto agm = FindBoundEngine("agm")->Compile(structure);
    auto full = FindBoundEngine("auto")->Compile(structure);
    const BoundResult agm_bound = agm->Evaluate(values);
    const BoundResult full_bound = full->Evaluate(values);
    if (!agm_bound.ok() || !full_bound.ok()) continue;
    ++comparable;
    // AGM sees only the cardinality statistics — a subset — so its LP is
    // a relaxation of the full one.
    EXPECT_GE(agm_bound.log2_bound, full_bound.log2_bound - 1e-6)
        << "trial " << trial << " query " << q.ToString();
  }
  EXPECT_GT(comparable, 4);
}

}  // namespace
}  // namespace lpb
