#include "estimator/advisor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "bounds/normal_engine.h"

namespace lpb {
namespace {

int ColumnOfVar(const Atom& atom, int v) {
  for (size_t j = 0; j < atom.vars.size(); ++j) {
    if (atom.vars[j] == v) return static_cast<int>(j);
  }
  return -1;
}

std::vector<int> ColumnsOf(const Atom& atom, VarSet s) {
  std::vector<int> cols;
  for (int v : VarRange(s)) cols.push_back(ColumnOfVar(atom, v));
  return cols;
}

// One degree-sequence lookup a query's statistics assembly needs: the
// norm-store key plus how its cached norms materialize into statistics
// (every maintained norm for a conditional, only the ℓ1 entry for a
// cardinality assertion). The scalar and batched assembly paths share
// this enumeration, which is what makes their outputs bitwise identical.
struct StatRequest {
  ShardedNormCache::Key key;
  Conditional sigma;
  bool cardinality = false;  // emit only the p == 1 norm (ℓ1 of deg(V|∅))
  int guard_atom = -1;
  int arity = 0;  // the atom's variable count, checked against the key's
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The arity of a catalog relation, or -1 when the catalog has none by that
// name. A norm miss computes only for an atom of its relation's arity:
// without the check Catalog::Get dereferences end() for an unknown
// relation, and degree extraction reads past the row for an atom wider
// than its relation. Only misses look the catalog up; the store keeps the
// relation's arity with each entry, so a hit costs one int compare (a
// narrower atom shares keys with a well-formed one: R(X) and R(X, X)).
int RelationArity(const Catalog& catalog, const std::string& relation) {
  return catalog.Has(relation) ? catalog.Get(relation).arity() : -1;
}

std::vector<StatRequest> EnumerateStatRequests(const Query& query) {
  std::vector<StatRequest> requests;
  for (int a = 0; a < query.num_atoms(); ++a) {
    const Atom& atom = query.atom(a);
    const VarSet atom_vars = atom.var_set();

    // Cardinality assertion (ℓ1 over (vars | ∅)).
    {
      StatRequest r;
      r.key = {atom.relation, {}, ColumnsOf(atom, atom_vars)};
      r.sigma = {0, atom_vars};
      r.cardinality = true;
      r.guard_atom = a;
      r.arity = static_cast<int>(atom.vars.size());
      requests.push_back(std::move(r));
    }

    // Simple per-variable conditionals.
    for (int v : VarRange(atom_vars)) {
      const VarSet u = VarBit(v);
      const VarSet rest = atom_vars & ~u;
      if (rest == 0) continue;
      StatRequest r;
      r.key = {atom.relation, ColumnsOf(atom, u), ColumnsOf(atom, rest)};
      r.sigma = {u, rest};
      r.guard_atom = a;
      r.arity = static_cast<int>(atom.vars.size());
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

// Materializes one request's statistics from its cached norm vector
// (aligned with `norm_ps`, the advisor's maintained norm indices).
void AppendStats(const StatRequest& request,
                 const std::vector<double>& log_norms,
                 const std::vector<double>& norm_ps,
                 std::vector<ConcreteStatistic>& stats) {
  for (size_t k = 0; k < norm_ps.size(); ++k) {
    if (request.cardinality && norm_ps[k] != 1.0) continue;
    ConcreteStatistic s;
    s.sigma = request.sigma;
    s.p = norm_ps[k];
    s.log_b = log_norms[k];
    s.guard_atom = request.guard_atom;
    stats.push_back(s);
    if (request.cardinality) break;
  }
}

}  // namespace

CardinalityAdvisor::CardinalityAdvisor(const Catalog& catalog,
                                       AdvisorOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      norms_(options_.norm_cache),
      compiled_(std::make_shared<const CompiledMap>()) {}

bool CardinalityAdvisor::CachedNorms(const ShardedNormCache::Key& key,
                                     int arity, std::vector<double>& norms) {
  ShardedNormCache::Lookup lookup = norms_.Get(key);
  if (lookup.found) {
    if (lookup.arity != arity) return false;
    norms = std::move(lookup.norms);
    return true;
  }
  if (RelationArity(catalog_, std::get<0>(key)) != arity) return false;
  // Compute outside the shard lock: degree-sequence extraction is
  // O(N log N) and must not serialize concurrent estimators. A racing
  // thread may compute the same entry; both arrive at identical values, so
  // last-write-wins is harmless. Put refuses the insert if an Invalidate
  // ran meanwhile (the norms may reflect pre-update data — serve them for
  // this call but do not cache).
  const DegreeSequence deg = ComputeDegreeSequence(
      catalog_.Get(std::get<0>(key)), std::get<1>(key), std::get<2>(key));
  norms.clear();
  norms.reserve(options_.norms.size());
  for (double p : options_.norms) norms.push_back(deg.Log2NormP(p));
  norms_.Put(key, norms, lookup.generation, arity);
  return true;
}

bool CardinalityAdvisor::AssembleStatistics(
    const Query& query, std::vector<ConcreteStatistic>& stats) {
  stats.clear();
  std::vector<double> norms;
  for (const StatRequest& request : EnumerateStatRequests(query)) {
    if (!CachedNorms(request.key, request.arity, norms)) {
      stats.clear();
      return false;
    }
    AppendStats(request, norms, options_.norms, stats);
  }
  return true;
}

std::vector<std::vector<ConcreteStatistic>>
CardinalityAdvisor::AssembleStatisticsBatch(std::span<const Query> queries,
                                            std::vector<bool>* valid) {
  // Enumerate every query's degree-sequence lookups and dedup the keys
  // across the batch (first-appearance order): under admission batching
  // the batch mixes a few hot templates, so most requests resolve to a
  // slot another query already claimed.
  std::vector<std::vector<StatRequest>> requests(queries.size());
  std::vector<ShardedNormCache::Key> distinct;
  std::map<ShardedNormCache::Key, size_t> slot_of;
  std::vector<std::vector<size_t>> slots(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i] = EnumerateStatRequests(queries[i]);
    slots[i].reserve(requests[i].size());
    for (const StatRequest& r : requests[i]) {
      auto [it, inserted] = slot_of.emplace(r.key, distinct.size());
      if (inserted) distinct.push_back(r.key);
      slots[i].push_back(it->second);
    }
  }

  // One GetBatch over the distinct keys: each touched store shard's mutex
  // is taken once for the whole batch (norm_cache.h). Misses are computed
  // outside any lock — same O(N log N) extraction and the same Log2NormP
  // sequence as the scalar path — and re-inserted through one PutBatch,
  // each under the generation its GetBatch observed (a concurrent
  // Invalidate refuses the stale insert but this batch still serves its
  // computed values, exactly like the scalar path).
  std::vector<ShardedNormCache::Lookup> lookups = norms_.GetBatch(distinct);
  std::vector<ShardedNormCache::PutItem> puts;
  // Per key, its relation's arity (see RelationArity): a hit returns the
  // arity stored with the entry, a miss looks it up. Each request is
  // checked against its key's below, and a missed key that names no
  // relation or a column past the relation's last gets no norms.
  std::vector<int> key_arity(distinct.size());
  for (size_t s = 0; s < distinct.size(); ++s) {
    if (lookups[s].found) {
      key_arity[s] = lookups[s].arity;
      continue;
    }
    const ShardedNormCache::Key& key = distinct[s];
    const int arity = RelationArity(catalog_, std::get<0>(key));
    key_arity[s] = arity;
    const auto past_end = [arity](int col) { return col >= arity; };
    if (arity < 0 || std::any_of(std::get<1>(key).begin(),
                                 std::get<1>(key).end(), past_end) ||
        std::any_of(std::get<2>(key).begin(), std::get<2>(key).end(),
                    past_end)) {
      continue;
    }
    const DegreeSequence deg = ComputeDegreeSequence(
        catalog_.Get(std::get<0>(key)), std::get<1>(key), std::get<2>(key));
    std::vector<double>& norms = lookups[s].norms;
    norms.reserve(options_.norms.size());
    for (double p : options_.norms) norms.push_back(deg.Log2NormP(p));
    puts.push_back({key, norms, lookups[s].generation, arity});
  }
  if (!puts.empty()) norms_.PutBatch(std::move(puts));

  std::vector<std::vector<ConcreteStatistic>> out(queries.size());
  if (valid != nullptr) valid->assign(queries.size(), true);
  for (size_t i = 0; i < queries.size(); ++i) {
    bool ok = true;
    for (size_t j = 0; j < requests[i].size() && ok; ++j) {
      ok = key_arity[slots[i][j]] == requests[i][j].arity;
    }
    if (!ok) {
      if (valid != nullptr) (*valid)[i] = false;
      continue;
    }
    for (size_t j = 0; j < requests[i].size(); ++j) {
      AppendStats(requests[i][j], lookups[slots[i][j]].norms, options_.norms,
                  out[i]);
    }
  }
  return out;
}

std::shared_ptr<CardinalityAdvisor::CompiledEntry>
CardinalityAdvisor::LookupOrCompile(const BoundStructure& structure,
                                    const std::string& key) {
  // Hot path: one atomic load of the immutable snapshot — no lock, so a
  // writer burst (a batch of fresh templates compiling) never serializes
  // concurrent readers of already-compiled structures.
  {
    std::shared_ptr<const CompiledMap> snapshot =
        compiled_.load(std::memory_order_acquire);
    auto it = snapshot->find(key);
    if (it != snapshot->end()) {
      compiled_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compile outside the writer lock — Γn compilation materializes the
  // elemental lattice. If another thread compiled the same structure
  // meanwhile, its entry wins and ours is dropped.
  const BoundEngine* engine = FindBoundEngine(options_.bound_engine);
  if (engine == nullptr) engine = FindBoundEngine("auto");
  auto fresh = std::make_shared<CompiledEntry>();
  fresh->bound = engine->Compile(structure, options_.engine);
  std::lock_guard<std::mutex> lock(compiled_writer_mu_);
  std::shared_ptr<const CompiledMap> current =
      compiled_.load(std::memory_order_acquire);
  auto it = current->find(key);
  if (it != current->end()) {
    compiled_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Copy-on-write publish: readers keep whatever snapshot they hold; the
  // next lookup sees the new map.
  auto next = std::make_shared<CompiledMap>(*current);
  auto [pos, inserted] = next->emplace(key, std::move(fresh));
  compiled_.store(std::shared_ptr<const CompiledMap>(std::move(next)),
                  std::memory_order_release);
  compiled_misses_.fetch_add(1, std::memory_order_relaxed);
  (void)inserted;
  return pos->second;
}

void CardinalityAdvisor::RecordEval(const BoundResult& result) {
  switch (result.eval_path) {
    case LpEvalPath::kWitness:
      witness_hits_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LpEvalPath::kWarm:
      warm_resolves_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LpEvalPath::kCold:
      cold_solves_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const LpSolveStats& stats = result.lp_stats;
  if (stats.TotalPivots() > 0) {
    lp_pivots_.fetch_add(static_cast<uint64_t>(stats.TotalPivots()),
                         std::memory_order_relaxed);
  }
  if (stats.refactorizations > 0) {
    lp_refactorizations_.fetch_add(
        static_cast<uint64_t>(stats.refactorizations),
        std::memory_order_relaxed);
  }
  if (stats.ft_updates > 0) {
    lp_ft_updates_.fetch_add(static_cast<uint64_t>(stats.ft_updates),
                             std::memory_order_relaxed);
  }
  if (stats.devex_resets > 0) {
    lp_devex_resets_.fetch_add(static_cast<uint64_t>(stats.devex_resets),
                               std::memory_order_relaxed);
  }
  if (stats.warm_cut_rounds > 0) {
    lp_warm_cut_rounds_.fetch_add(static_cast<uint64_t>(stats.warm_cut_rounds),
                                  std::memory_order_relaxed);
  }
  if (stats.dual_repair_pivots > 0) {
    lp_dual_repair_pivots_.fetch_add(
        static_cast<uint64_t>(stats.dual_repair_pivots),
        std::memory_order_relaxed);
  }
  if (stats.row_appends > 0) {
    lp_row_appends_.fetch_add(static_cast<uint64_t>(stats.row_appends),
                              std::memory_order_relaxed);
  }
  if (stats.append_refactorizations > 0) {
    lp_append_refactorizations_.fetch_add(
        static_cast<uint64_t>(stats.append_refactorizations),
        std::memory_order_relaxed);
  }
}

BoundResult CardinalityAdvisor::EvaluateCompiled(
    int n, const std::vector<ConcreteStatistic>& stats, bool want_h_opt) {
  const BoundStructure structure = StructureOf(n, stats);
  std::shared_ptr<CompiledEntry> entry =
      LookupOrCompile(structure, StructureKey(structure));

  BoundResult result;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    result = entry->bound->Evaluate(ValuesOf(stats), want_h_opt);
  }
  estimates_.fetch_add(1, std::memory_order_relaxed);
  RecordEval(result);
  return result;
}

double CardinalityAdvisor::EstimateLog2(const Query& query) {
  // The empty conjunction has exactly one (empty) answer tuple: log2 1 = 0.
  // Guarded here because no bound engine accepts a 0-variable structure.
  if (query.num_atoms() == 0) {
    estimates_.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  std::vector<ConcreteStatistic> stats;
  if (!AssembleStatistics(query, stats)) return kNaN;
  return EvaluateCompiled(query.num_vars(), stats, /*want_h_opt=*/false)
      .log2_bound;
}

double CardinalityAdvisor::Estimate(const Query& query) {
  return std::exp2(EstimateLog2(query));
}

std::vector<double> CardinalityAdvisor::EstimateLog2Batch(
    const Query& query, std::span<const std::vector<double>> log_b_batch) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_probes_.fetch_add(log_b_batch.size(), std::memory_order_relaxed);
  if (query.num_atoms() == 0) {
    // Empty conjunction: one empty answer tuple regardless of statistics.
    // Only the empty value vector matches the (empty) statistics set.
    std::vector<double> out(log_b_batch.size(), kInfNorm);
    for (size_t c = 0; c < log_b_batch.size(); ++c) {
      if (log_b_batch[c].empty()) out[c] = 0.0;
    }
    estimates_.fetch_add(log_b_batch.size(), std::memory_order_relaxed);
    return out;
  }
  std::vector<ConcreteStatistic> stats;
  if (!AssembleStatistics(query, stats)) {
    return std::vector<double>(log_b_batch.size(), kNaN);
  }
  const BoundStructure structure = StructureOf(query.num_vars(), stats);

  // Callers hand-construct these vectors, so enforce the alignment
  // contract here rather than in a debug-only assert downstream: a
  // mis-sized vector cannot be priced against this structure and gets the
  // "cannot bound" answer (+inf), while the well-sized rest still rides
  // the batch path.
  std::vector<double> out(log_b_batch.size(), kInfNorm);
  std::vector<size_t> valid;
  valid.reserve(log_b_batch.size());
  for (size_t c = 0; c < log_b_batch.size(); ++c) {
    if (log_b_batch[c].size() == stats.size()) valid.push_back(c);
  }
  if (valid.empty()) return out;
  std::vector<std::vector<double>> valid_values;
  if (valid.size() != log_b_batch.size()) {
    valid_values.reserve(valid.size());
    for (size_t c : valid) valid_values.push_back(log_b_batch[c]);
  }

  std::shared_ptr<CompiledEntry> entry =
      LookupOrCompile(structure, StructureKey(structure));
  std::vector<BoundResult> results;
  {
    // One lock for the whole block: the batch is one evaluation sequence
    // on the shared compiled bound (see CompiledEntry). The common
    // all-valid case passes the caller's block through without copying.
    std::lock_guard<std::mutex> lock(entry->mu);
    results = valid.size() == log_b_batch.size()
                  ? entry->bound->EvaluateBatch(log_b_batch,
                                                /*want_h_opt=*/false)
                  : entry->bound->EvaluateBatch(valid_values,
                                                /*want_h_opt=*/false);
  }
  estimates_.fetch_add(results.size(), std::memory_order_relaxed);
  for (size_t k = 0; k < results.size(); ++k) {
    RecordEval(results[k]);
    out[valid[k]] = results[k].log2_bound;
  }
  return out;
}

std::vector<double> CardinalityAdvisor::EstimateLog2Batch(
    const std::vector<Query>& queries) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_probes_.fetch_add(queries.size(), std::memory_order_relaxed);
  // Batched front half: all queries' statistics assembled through one
  // norm-store GetBatch/PutBatch round (keys deduped across the batch).
  std::vector<bool> valid;
  const std::vector<std::vector<ConcreteStatistic>> all_stats =
      AssembleStatisticsBatch(queries, &valid);
  // Group queries by compiled structure (first-appearance order) so every
  // group pays one structure lookup and one per-bound lock, and its value
  // vectors ride the batch path together.
  struct Group {
    BoundStructure structure;
    std::string key;
    std::vector<size_t> indices;
    std::vector<std::vector<double>> values;
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_of;
  std::vector<double> out(queries.size(), 0.0);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].num_atoms() == 0) {
      // Empty conjunction: log2 1 = 0, no structure to compile.
      estimates_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!valid[i]) {
      // A bad atom: not estimated, and no other query's group is touched.
      out[i] = kNaN;
      continue;
    }
    const std::vector<ConcreteStatistic>& stats = all_stats[i];
    BoundStructure structure = StructureOf(queries[i].num_vars(), stats);
    std::string key = StructureKey(structure);
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{std::move(structure), std::move(key), {}, {}});
    }
    Group& group = groups[it->second];
    group.indices.push_back(i);
    group.values.push_back(ValuesOf(stats));
  }

  for (const Group& group : groups) {
    std::shared_ptr<CompiledEntry> entry =
        LookupOrCompile(group.structure, group.key);
    std::vector<BoundResult> results;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      results = entry->bound->EvaluateBatch(group.values,
                                            /*want_h_opt=*/false);
    }
    estimates_.fetch_add(results.size(), std::memory_order_relaxed);
    for (size_t k = 0; k < results.size(); ++k) {
      RecordEval(results[k]);
      out[group.indices[k]] = results[k].log2_bound;
    }
  }
  return out;
}

std::vector<double> CardinalityAdvisor::EstimateBatch(
    const std::vector<Query>& queries) {
  std::vector<double> out = EstimateLog2Batch(queries);
  for (double& v : out) v = std::exp2(v);
  return out;
}

CardinalityAdvisor::Explanation CardinalityAdvisor::Explain(
    const Query& query) {
  Explanation out;
  if (!AssembleStatistics(query, out.stats)) {
    out.bound.log2_bound = kNaN;
    out.metrics = metrics();
    return out;
  }
  for (ConcreteStatistic& s : out.stats) s.label = ToString(s, query);
  out.bound =
      EvaluateCompiled(query.num_vars(), out.stats, /*want_h_opt=*/true);
  out.metrics = metrics();
  return out;
}

size_t CardinalityAdvisor::CacheSize() const { return norms_.Size(); }

size_t CardinalityAdvisor::CacheBytes() const { return norms_.Bytes(); }

size_t CardinalityAdvisor::CompiledCacheSize() const {
  return compiled_.load(std::memory_order_acquire)->size();
}

AdvisorMetrics CardinalityAdvisor::metrics() const {
  AdvisorMetrics m;
  m.estimates = estimates_.load(std::memory_order_relaxed);
  m.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  m.batch_probes = batch_probes_.load(std::memory_order_relaxed);
  m.compiled_hits = compiled_hits_.load(std::memory_order_relaxed);
  m.compiled_misses = compiled_misses_.load(std::memory_order_relaxed);
  m.witness_hits = witness_hits_.load(std::memory_order_relaxed);
  m.warm_resolves = warm_resolves_.load(std::memory_order_relaxed);
  m.cold_solves = cold_solves_.load(std::memory_order_relaxed);
  m.norm_evictions = norms_.Evictions();
  m.norm_hits = norms_.Hits();
  m.norm_misses = norms_.Misses();
  m.norm_shard_locks = norms_.LockAcquisitions();
  m.lp_pivots = lp_pivots_.load(std::memory_order_relaxed);
  m.lp_refactorizations =
      lp_refactorizations_.load(std::memory_order_relaxed);
  m.lp_ft_updates = lp_ft_updates_.load(std::memory_order_relaxed);
  m.lp_devex_resets = lp_devex_resets_.load(std::memory_order_relaxed);
  m.lp_warm_cut_rounds = lp_warm_cut_rounds_.load(std::memory_order_relaxed);
  m.lp_dual_repair_pivots =
      lp_dual_repair_pivots_.load(std::memory_order_relaxed);
  m.lp_row_appends = lp_row_appends_.load(std::memory_order_relaxed);
  m.lp_append_refactorizations =
      lp_append_refactorizations_.load(std::memory_order_relaxed);
  return m;
}

void CardinalityAdvisor::Invalidate(const std::string& relation) {
  norms_.InvalidateRelation(relation);
}

}  // namespace lpb
