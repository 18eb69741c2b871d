// CardinalityAdvisor: the paper's "future work" packaged as an API —
// a pessimistic cardinality estimation service for query optimizers.
//
// Two caches make the hot path cheap enough for optimizer traffic:
//   * statistics store — ℓp norms per (relation, conditional), computed
//     lazily (O(N log N) per degree sequence, footnote 1) and reused across
//     queries. The store is sharded by relation (estimator/norm_cache.h):
//     concurrent estimator threads looking up different relations take
//     different mutexes, and each shard is an LRU map under a byte budget,
//     so statistics memory stays bounded on wide catalogs (an evicted
//     entry is recomputed on the next lookup — eviction never changes
//     results).
//   * compiled-bound cache — the bound LP compiled once per *structure*
//     (variable count + statistic shapes; the query hypergraph enters the
//     LP only through those shapes) via bounds/bound_engine.h and
//     re-evaluated per statistics. For a repeated query template the
//     estimate is a statistics lookup plus a dual-witness dot product; the
//     LP is re-solved (warm, then cold) only when the cached basis stops
//     being optimal.
//
// Batch evaluation: an optimizer probing a join-order search space asks
// for thousands of what-if estimates against the same compiled structure.
// EstimateLog2Batch amortizes the per-call machinery — statistics
// assembly, structure lookup, and the per-bound mutex are paid once per
// batch, and the value vectors flow through the compiled LP's multi-RHS
// resolve (one cached LU factorization, shared dual witness) instead of
// one scalar cascade per probe.
//
// Thread safety: all estimation entry points may be called concurrently.
// The compiled cache is read lock-free: the map lives behind an RCU-style
// atomic shared_ptr snapshot, so the hot (hit) path is one atomic load —
// no reader ever serializes against a writer burst. Compiling a new
// structure copies the map under a writer mutex and swaps the snapshot.
// Each compiled bound carries its own mutex because Evaluate mutates the
// cached basis (a batch holds it for the whole block). Invalidate may run
// concurrently with estimates.
#ifndef LPB_ESTIMATOR_ADVISOR_H_
#define LPB_ESTIMATOR_ADVISOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/engine.h"
#include "estimator/norm_cache.h"
#include "query/query.h"
#include "relation/catalog.h"
#include "relation/degree_sequence.h"
#include "stats/statistic.h"

namespace lpb {

struct AdvisorOptions {
  // Norms maintained for every per-column degree sequence.
  std::vector<double> norms = {1.0, 2.0, 3.0, 4.0, kInfNorm};
  // Engine options for the occasional non-simple statistics set.
  EngineOptions engine;
  // Bound engine used for compiled bounds (see FindBoundEngine); "auto"
  // picks the normal engine when sound, the Γn engine otherwise.
  std::string bound_engine = "auto";
  // Sharding and eviction of the statistics store (see norm_cache.h):
  // relations hash onto `shards` LRU maps, each holding an even share of
  // `byte_budget` (0 = unbounded).
  NormCacheOptions norm_cache;
};

// Cumulative counters. Every estimate falls into exactly one of
// witness/warm/cold. Scalar estimates also split into exactly one of
// compiled hit/miss; a *batch* performs one compiled-cache lookup per
// structure group, so under batching `estimates` can exceed
// `compiled_hits + compiled_misses`.
struct AdvisorMetrics {
  uint64_t estimates = 0;        // bound evaluations served
  uint64_t batch_calls = 0;      // EstimateLog2Batch invocations (both forms)
  uint64_t batch_probes = 0;     // probes requested across those batches
  uint64_t compiled_hits = 0;    // structure found in the compiled cache
  uint64_t compiled_misses = 0;  // structure compiled on this call
  uint64_t witness_hits = 0;     // cached dual witness reused (dot product)
  uint64_t warm_resolves = 0;    // dual-simplex pivots from the cached basis
  uint64_t cold_solves = 0;      // full LP solve
  uint64_t norm_evictions = 0;   // statistics-store LRU evictions
  // Statistics-store traffic (estimator/norm_cache.h): lookup hits and
  // misses (a miss is an O(N log N) degree-sequence recompute) and
  // data-path shard-mutex acquisitions. Batched assembly keeps the last
  // near "distinct shards touched per batch" instead of "statistics per
  // batch"; the bench JSON surfaces all three so cache efficacy is gated,
  // not guessed.
  uint64_t norm_hits = 0;
  uint64_t norm_misses = 0;
  uint64_t norm_shard_locks = 0;
  // LP solver work behind the estimates, summed from BoundResult::lp_stats
  // (lp/simplex.h): simplex pivots across all phases, basis
  // refactorizations, Forrest–Tomlin updates taken, and Devex reference
  // resets. bench_throughput surfaces these so the CI
  // perf gate can assert on iteration counts, not just wall-clock.
  uint64_t lp_pivots = 0;
  uint64_t lp_refactorizations = 0;
  uint64_t lp_ft_updates = 0;
  uint64_t lp_devex_resets = 0;
  // Cut-growth accounting for the Γn cutting-plane engine: rounds whose new
  // cut rows were appended onto the live basis (vs rebuilt cold), the dual
  // pivots spent repairing those appended rows, total rows appended, and
  // appends whose LU fill tripped an immediate refactorization.
  uint64_t lp_warm_cut_rounds = 0;
  uint64_t lp_dual_repair_pivots = 0;
  uint64_t lp_row_appends = 0;
  uint64_t lp_append_refactorizations = 0;
};

class CardinalityAdvisor {
 public:
  // The advisor keeps a reference to the catalog; it must outlive the
  // advisor. Statistics and compiled bounds are built lazily and cached.
  CardinalityAdvisor(const Catalog& catalog, AdvisorOptions options = {});

  // log2 upper bound on |Q(D)|; +infinity if the statistics cannot bound
  // the query (should not happen for full CQs with maintained norms).
  // Quiet NaN when an atom names a relation the catalog does not have, or
  // has a different arity than its relation; such a query is not
  // estimated and counts in no metric. Only a statistic's first
  // computation consults the catalog; the store keeps the relation's
  // arity with it, so a cached statistic costs one int compare. The same
  // holds for every entry point below.
  double EstimateLog2(const Query& query);

  // Upper bound in linear space (2^EstimateLog2, saturating).
  double Estimate(const Query& query);

  // Batched what-if probing: bounds `query` under each hypothetical
  // statistics-value vector in `log_b_batch` (rows aligned with
  // Explain(query).stats — the advisor's own statistics assembly order;
  // a vector of any other size cannot be priced and yields +infinity).
  // Statistics assembly, the structure lookup, and the per-bound lock are
  // paid once; the values flow through the compiled bound's batch path
  // (bounds/bound_engine.h). Results are identical to overwriting the
  // stats' log_b and estimating one vector at a time.
  std::vector<double> EstimateLog2Batch(
      const Query& query, std::span<const std::vector<double>> log_b_batch);

  // Batched estimation over many queries (e.g. every candidate join
  // prefix of one search step). Queries sharing a statistics structure —
  // the norm in template workloads — are grouped and evaluated under one
  // compiled-bound lock via the batch path. Returns log2 bounds aligned
  // with `queries`.
  std::vector<double> EstimateLog2Batch(const std::vector<Query>& queries);
  // Linear-space variant of the above (2^log2 per entry, saturating).
  std::vector<double> EstimateBatch(const std::vector<Query>& queries);

  // Batched front half of the estimate path: the statistics of many
  // queries assembled through ONE norm-store GetBatch over the distinct
  // (relation, U, V) degree-sequence keys of the whole batch (plus one
  // PutBatch for whatever had to be computed). Keys repeated across the
  // batch's queries — the norm under admission batching, where concurrent
  // requests mix a few hot templates — are resolved once, and each
  // touched cache shard's mutex is visited once per batch instead of once
  // per statistic. Per query the returned statistics are bitwise those of
  // the scalar assembly the Explain path performs (same enumeration
  // order, same norm computation). A 0-atom query yields an empty vector,
  // and so does a query with a bad atom (see EstimateLog2); when `valid`
  // is given it receives one flag per query telling the two apart.
  std::vector<std::vector<ConcreteStatistic>> AssembleStatisticsBatch(
      std::span<const Query> queries, std::vector<bool>* valid = nullptr);

  // Full result (certificate weights, optimal polymatroid) plus the
  // statistics it was computed from and a metrics snapshot taken after the
  // call — bound.eval_path says whether this particular estimate reused
  // a cached witness, warm-resolved, or solved cold, and bound.lp_stats
  // what the LP solver did for it. A query with a bad atom yields
  // bound.log2_bound = NaN and no statistics.
  struct Explanation {
    BoundResult bound;
    std::vector<ConcreteStatistic> stats;
    AdvisorMetrics metrics;
  };
  Explanation Explain(const Query& query);

  // Number of distinct cached degree sequences (statistics maintenance
  // footprint) and their charged bytes.
  size_t CacheSize() const;
  size_t CacheBytes() const;
  // Number of distinct compiled bound structures.
  size_t CompiledCacheSize() const;

  // Snapshot of the cumulative evaluation counters.
  AdvisorMetrics metrics() const;

  // Drops cached statistics for one relation (call after updates). Only
  // that relation's shard is touched. Compiled bounds survive: they depend
  // only on structure, never on statistic values, so the next estimate
  // re-reads fresh norms and re-prices the cached basis against them.
  void Invalidate(const std::string& relation);

 private:
  // A compiled bound plus the mutex serializing Evaluate/EvaluateBatch on
  // it (both mutate the cached basis and, for Γn, the cut set). A batch
  // holds the mutex for its whole block — the locking contract callers
  // rely on is per-*evaluation-sequence*, not per-call.
  struct CompiledEntry {
    std::mutex mu;
    std::unique_ptr<CompiledBound> bound;
  };

  // Cached log2 norms for one degree sequence, aligned with options_.norms,
  // copied into `norms` (the copy keeps the caller independent of
  // concurrent Invalidate calls and LRU evictions). Returns false when
  // the atom behind the key (`arity` variables over relation get<0>(key))
  // does not match the catalog: on a hit against the arity stored with
  // the entry, on a miss against the catalog (computing and caching
  // nothing).
  bool CachedNorms(const ShardedNormCache::Key& key, int arity,
                   std::vector<double>& norms);

  // The query's statistics into `stats`; false (and `stats` empty) when
  // an atom does not match the catalog (see CachedNorms).
  bool AssembleStatistics(const Query& query,
                          std::vector<ConcreteStatistic>& stats);

  // The compiled-bound map is immutable once published: every write copies
  // the current map and swaps the snapshot pointer (RCU). Readers hold the
  // snapshot shared_ptr for the duration of their lookup, so a concurrent
  // swap never invalidates what they see.
  using CompiledMap = std::map<std::string, std::shared_ptr<CompiledEntry>>;

  // Finds or compiles the bound entry for `structure` (whose canonical key
  // is `key`), bumping the compiled hit/miss counters once. Lock-free on
  // the hit path (one atomic snapshot load).
  std::shared_ptr<CompiledEntry> LookupOrCompile(
      const BoundStructure& structure, const std::string& key);

  // Looks up or compiles the bound for this statistics structure, then
  // evaluates it at the statistics' values, updating metrics.
  BoundResult EvaluateCompiled(int n,
                               const std::vector<ConcreteStatistic>& stats,
                               bool want_h_opt);

  // Folds one evaluation's path and LP solver work into the counters.
  void RecordEval(const BoundResult& result);

  const Catalog& catalog_;
  AdvisorOptions options_;

  ShardedNormCache norms_;

  // RCU snapshot of the compiled-bound map (never null) and the mutex
  // serializing writers (copy-insert-swap; readers never take it).
  // NOTE: libstdc++ implements atomic<shared_ptr> with an embedded
  // lock-bit protocol TSan cannot model (GCC bug 101761), so the TSan CI
  // lane runs with the .github/tsan.supp suppression for _Sp_atomic.
  std::atomic<std::shared_ptr<const CompiledMap>> compiled_;
  std::mutex compiled_writer_mu_;

  std::atomic<uint64_t> estimates_{0};
  std::atomic<uint64_t> batch_calls_{0};
  std::atomic<uint64_t> batch_probes_{0};
  std::atomic<uint64_t> compiled_hits_{0};
  std::atomic<uint64_t> compiled_misses_{0};
  std::atomic<uint64_t> witness_hits_{0};
  std::atomic<uint64_t> warm_resolves_{0};
  std::atomic<uint64_t> cold_solves_{0};
  std::atomic<uint64_t> lp_pivots_{0};
  std::atomic<uint64_t> lp_refactorizations_{0};
  std::atomic<uint64_t> lp_ft_updates_{0};
  std::atomic<uint64_t> lp_devex_resets_{0};
  std::atomic<uint64_t> lp_warm_cut_rounds_{0};
  std::atomic<uint64_t> lp_dual_repair_pivots_{0};
  std::atomic<uint64_t> lp_row_appends_{0};
  std::atomic<uint64_t> lp_append_refactorizations_{0};
};

}  // namespace lpb

#endif  // LPB_ESTIMATOR_ADVISOR_H_
