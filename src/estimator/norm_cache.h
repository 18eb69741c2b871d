// Relation-sharded ℓp-norm statistics store.
//
// The advisor's original norm cache was one std::map behind one mutex —
// every concurrent estimator thread serialized on it for every statistic
// lookup, which capped scaling at a handful of cores. This store shards by
// *relation name*: all entries of one relation live in one shard (so
// Invalidate touches exactly one shard), while lookups for different
// relations — the common concurrent pattern, since a query's atoms name
// different relations — proceed under different mutexes.
//
// Each shard is an LRU map with a byte budget: entries are charged an
// estimate of their heap footprint, and inserting past the shard's share
// of the budget evicts least-recently-used entries. Eviction is purely a
// memory bound — an evicted entry is recomputed from the catalog on the
// next lookup, it never changes results.
//
// Staleness: each shard carries a *per-relation* generation counter
// bumped by InvalidateRelation. Get returns the generation observed under
// the shard lock; Put refuses to insert when that relation's generation
// has moved on, so a norm computation that raced an invalidation cannot
// re-insert stale values (the caller still uses the computed norms for
// its own call) — while invalidating one relation never discards
// concurrent computations for other relations that share its shard.
//
// Batch entry points: GetBatch/PutBatch group their keys by shard and
// take each touched shard's mutex once for the whole batch, instead of
// once per key — the lock-traffic contract the advisor's batched
// statistics assembly (estimator/advisor.h, AssembleStatisticsBatch)
// relies on. Per key they run the same code as Get/Put (same LRU refresh,
// same generation refusal), so results are bitwise those of the scalar
// sequence.
#ifndef LPB_ESTIMATOR_NORM_CACHE_H_
#define LPB_ESTIMATOR_NORM_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

namespace lpb {

struct NormCacheOptions {
  // Shard count; clamped to >= 1. Relations hash onto shards, so this is
  // the concurrency ceiling for lookups of distinct relations.
  int shards = 16;
  // Total byte budget across all shards (split evenly); 0 = unbounded.
  size_t byte_budget = 8u << 20;
};

class ShardedNormCache {
 public:
  // (relation, U columns, V columns) — one degree sequence's identity.
  using Key = std::tuple<std::string, std::vector<int>, std::vector<int>>;

  struct Lookup {
    bool found = false;
    std::vector<double> norms;  // valid when found
    // The arity Put recorded with the entry (valid when found): the
    // advisor stores its relation's, so a hit checks an atom's arity
    // without a catalog lookup.
    int arity = -1;
    // The key's relation generation observed under the lock; pass to Put.
    uint64_t generation = 0;
  };

  explicit ShardedNormCache(NormCacheOptions options = {});

  // Looks the key up in its relation's shard, refreshing LRU recency on a
  // hit. Always reports the relation's generation, so a miss can be
  // followed by a compute + Put.
  Lookup Get(const Key& key);

  // Inserts (or refreshes) the entry unless the key's relation generation
  // no longer equals `generation` — an invalidation of *that relation*
  // ran while the caller computed — then evicts LRU entries until the
  // shard is back under its byte share. `arity` is stored with the entry
  // and returned by later hits.
  void Put(const Key& key, std::vector<double> norms, uint64_t generation,
           int arity = -1);

  // Batched lookup: keys are grouped by shard and each touched shard's
  // mutex is taken exactly once for the whole batch (LockAcquisitions
  // grows by the number of *distinct* shards, not by keys.size()), so a
  // multi-query statistics assembly stops paying one lock round-trip per
  // statistic. Per key the result — found/norms/generation, LRU recency
  // refresh, hit/miss accounting — is identical to calling Get in
  // sequence. Returned lookups align with `keys`.
  std::vector<Lookup> GetBatch(std::span<const Key> keys);

  // Batched insert, the Put counterpart of GetBatch: one mutex visit per
  // distinct shard, each item subject to the same per-relation generation
  // refusal as Put (an item whose relation was invalidated since its
  // GetBatch is dropped; the rest of the batch still lands).
  struct PutItem {
    Key key;
    std::vector<double> norms;
    uint64_t generation = 0;
    int arity = -1;
  };
  void PutBatch(std::vector<PutItem> items);

  // Drops every entry of `relation` and bumps its generation so in-flight
  // computations cannot re-insert pre-invalidation values.
  void InvalidateRelation(const std::string& relation);

  size_t Size() const;        // entries across all shards
  size_t Bytes() const;       // charged bytes across all shards
  uint64_t Evictions() const; // cumulative LRU evictions
  uint64_t Hits() const;      // cumulative Get/GetBatch hits
  uint64_t Misses() const;    // cumulative Get/GetBatch misses
  // Data-path shard-mutex acquisitions (Get/Put/GetBatch/PutBatch/
  // InvalidateRelation). Monitoring reads (Size, Bytes, counters) are not
  // counted, so tests can assert "one acquisition per distinct shard per
  // batch" exactly.
  uint64_t LockAcquisitions() const;

 private:
  struct Entry {
    std::vector<double> norms;
    int arity = -1;
    std::list<Key>::iterator lru_it;  // position in the shard's LRU list
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<Key, Entry> map;
    std::list<Key> lru;  // front = least recently used
    size_t bytes = 0;
    // Generation per relation (absent = 0), bumped by InvalidateRelation;
    // bounded by the number of relations ever invalidated in this shard.
    std::map<std::string, uint64_t> relation_generation;
    uint64_t evictions = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t lock_acquisitions = 0;
  };

  // Per-key bodies of Get/Put, shared verbatim by the scalar and batch
  // entry points (the batch results are bitwise those of the scalar
  // sequence because they run the same code). Caller holds shard.mu.
  Lookup GetLocked(Shard& shard, const Key& key);
  void PutLocked(Shard& shard, const Key& key, std::vector<double> norms,
                 uint64_t generation, int arity);

  size_t ShardIndexOf(const std::string& relation) const;
  Shard& ShardOf(const std::string& relation);
  const Shard& ShardOf(const std::string& relation) const;

  NormCacheOptions options_;
  size_t per_shard_budget_ = 0;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lpb

#endif  // LPB_ESTIMATOR_NORM_CACHE_H_
