// Compile-once / evaluate-many throughput on a JOB-style template workload.
//
// An optimizer probes the advisor millions of times against a handful of
// query templates. This bench measures estimates/sec on the synthetic JOB
// workload (33 templates) in four regimes:
//   * cold   — a fresh LP built and solved from scratch per estimate
//              (the pre-pipeline behavior: LpNormBound on the statistics);
//   * warm   — the advisor's compiled path: per-structure compiled bound,
//              cached dual witness re-priced per call;
//   * batch  — the advisor's batched what-if path: per template, one
//              statistics assembly + structure lookup + per-bound lock for
//              a whole block of value vectors, re-priced through the
//              compiled tableau's multi-RHS resolve (EstimateLog2Batch);
//   * warm + value jitter — the statistics change between calls, so each
//              evaluation re-prices (and occasionally re-solves) rather
//              than hitting an unchanged optimum.
// The table reports the speedups and the advisor's witness/warm/cold
// counters, making the pipeline's cache behavior observable. The warm and
// batch regimes run the compiled path's revised simplex (lp/tableau.h),
// so the table doubles as the perf gate on its witness and block
// re-pricing paths.
//
// A second, pivot-count workload complements the throughput regimes: the
// fixed-seed cutting-plane Γn compile at n = 8 (the revised simplex's
// flagship LP) runs warm-append and cold-growth lanes under both pricing
// rules (Dantzig and Devex, lp/revised_simplex.h) and reports total
// simplex pivots, basis refactorizations, and the warm row-append
// counters from LpSolveStats. Pivot counts are deterministic for a fixed
// seed, so the CI gate can assert on iteration counts — devex must beat
// dantzig on the cold lanes (warm rounds repair via dual simplex, where
// column pricing plays no part), and the warm lanes must pivot well
// under the cold ones — rather than on machine-dependent wall-clock
// alone. A one-seed n = 10 lane rides the same harness: warm row appends
// are what make that compile take seconds rather than minutes, and the
// gate pins its pivot count plus a loose wall-clock ceiling. A
// cutting-plane batch regime (shared cut pool + multi-RHS resolve vs the
// scalar evaluate sequence, steady state) rounds out the table; its
// batch/scalar ratio is gated at >= 2x.
//
// An optimizer regime closes the loop on the motivating application
// (src/optimizer/): full DPsize join ordering per JOB template, reported
// as plans/s with the enumeration counters (probes, one advisor batch
// per DP level) that the CI gate pins exactly — they are deterministic,
// connectivity-driven counts. An untimed plan-quality section executes
// the bound-driven, traditional-model, and greedy plans on the <= 8-atom
// templates and sums the actual peak materialized intermediates; the gate
// requires the bound-driven sum to be no worse than either rival.
//
// Set LPB_BENCH_JSON=<path> to also dump the table as JSON — CI uploads
// it as an artifact and bench/compare_throughput.py gates regressions
// against bench/baseline_throughput.json: warm or batch cold-normalized
// throughput (the "speedup" field) >25% below baseline fails the
// workflow, as does batch < 2x scalar warm, a gamma_n8/gamma_n10
// pivot-count regression >15%, devex needing more than
// --max-devex-ratio of the cold dantzig lane's pivots, warm appends
// needing more than --max-warm-cold-ratio of the cold-growth pivots, a
// gamma_n10 compile over the wall-clock ceiling, or the cut batch's
// est/s >25% below its baseline (the one raw rate gated by default);
// other raw est/s are informational (machine-dependent) unless
// --strict-absolute.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "datagen/gamma_stats.h"
#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "exec/hash_join.h"
#include "lp/kernels.h"
#include "lp/solver_common.h"
#include "optimizer/join_order.h"
#include "relation/degree_sequence.h"
#include "serve/advisor_service.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

// Value vectors per template in the batch regime — the scale of one
// optimizer what-if burst against one structure.
constexpr int kBatchSize = 64;

// Every timed regime keeps sweeping the workload until it has measured at
// least this long — sub-50ms samples swing 2x run to run, which no perf
// gate tolerance can absorb.
constexpr double kMinMeasureSeconds = 0.5;

// CPU feature flags for the JSON header, finer-grained than the combined
// CpuHasAvx2Fma dispatch predicate (an avx2-without-fma machine dispatches
// scalar, and the artifact should say why).
bool CpuFlagAvx2() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuFlagFma() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const char* CompilerId() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

JobWorkload& Workload() {
  static JobWorkload wl = [] {
    JobWorkloadOptions opt;
    opt.scale = 0.05;
    return GenerateJobWorkload(opt);
  }();
  return wl;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RegimeRun {
  const char* backend = "revised";  // JSON key of the baseline's lanes
  const char* label;
  double est_per_s = 0.0;
  double speedup = 0.0;     // vs the cold regime
  int batch_size = 1;       // value vectors per advisor call
  int repeats = 0;          // workload sweeps this regime actually ran
  uint64_t witness = 0, warm = 0, cold = 0;
  // LP work behind the regime (AdvisorMetrics deltas): simplex pivots and
  // basis refactorizations.
  uint64_t pivots = 0, refactorizations = 0;
  // Per-kernel call/cycle table (lp/kernels.h), collected in ONE extra
  // workload sweep with cycle timing on — the timed measurement above runs
  // with timing off, so the rdtsc pairs never skew the gated est/s.
  unsigned long long kernel_calls[kNumLpKernels] = {};
  unsigned long long kernel_cycles[kNumLpKernels] = {};
};

// Workload sweeps per kernel-table collection. The hot kernels run a few
// hundred cycles per call, so a single sweep's cycle totals are dominated
// by whichever calls absorbed a timer interrupt — several sweeps average
// that out enough for the share-based gate in compare_throughput.py.
// (Calls, by contrast, are exactly deterministic across runs, which is
// what the stricter per-kernel call-count gate relies on.)
constexpr int kKernelTableSweeps = 16;

// Runs `sweep` kKernelTableSweeps times with kernel cycle timing enabled
// and stores the thread-local counter deltas in `run`. The timed regime
// measurement runs with timing off; this extra pass is the only place the
// rdtsc pairs execute, so they never skew the gated est/s. Calls are
// deterministic per sweep; cycles are machine-dependent but their shares
// within one regime are what the gate compares.
template <typename SweepFn>
void CollectKernelTable(RegimeRun& run, const SweepFn& sweep) {
  SetLpKernelCycleTiming(true);
  const LpKernelCounters base = g_lp_kernel_counters;
  for (int s = 0; s < kKernelTableSweeps; ++s) sweep();
  SetLpKernelCycleTiming(false);
  for (int k = 0; k < kNumLpKernels; ++k) {
    run.kernel_calls[k] = g_lp_kernel_counters.calls[k] - base.calls[k];
    run.kernel_cycles[k] = g_lp_kernel_counters.cycles[k] - base.cycles[k];
  }
}

void FillLpWork(RegimeRun& run, const AdvisorMetrics& before,
                const AdvisorMetrics& after) {
  run.witness = after.witness_hits - before.witness_hits;
  run.warm = after.warm_resolves - before.warm_resolves;
  run.cold = after.cold_solves - before.cold_solves;
  run.pivots = after.lp_pivots - before.lp_pivots;
  run.refactorizations =
      after.lp_refactorizations - before.lp_refactorizations;
}

// Warm regime: full advisor path (statistics lookup + compiled evaluate)
// over the whole template workload, one call at a time.
RegimeRun MeasureWarm(const char* label, int repeats,
                      const std::vector<double>& expected) {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  const size_t m = wl.queries.size();
  for (const Query& q : wl.queries) advisor.EstimateLog2(q);  // compile

  const AdvisorMetrics before = advisor.metrics();
  int sweeps = 0;
  double secs = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  do {
    for (size_t i = 0; i < m; ++i) {
      const double est = advisor.EstimateLog2(wl.queries[i]);
      benchmark::DoNotOptimize(est);
      if (std::abs(est - expected[i]) > 1e-6) {
        std::printf("MISMATCH on %s (%s): %f vs %f\n",
                    wl.queries[i].name().c_str(), label, est, expected[i]);
      }
    }
    ++sweeps;
    secs = Seconds(t0);
  } while (sweeps < repeats || secs < kMinMeasureSeconds);
  const AdvisorMetrics after = advisor.metrics();
  RegimeRun run;
  run.label = label;
  run.repeats = sweeps;
  run.est_per_s = static_cast<double>(sweeps) * m / secs;
  FillLpWork(run, before, after);
  CollectKernelTable(run, [&] {
    for (size_t i = 0; i < m; ++i) {
      benchmark::DoNotOptimize(advisor.EstimateLog2(wl.queries[i]));
    }
  });
  return run;
}

// Batch regime: per template, one EstimateLog2Batch
// call re-pricing kBatchSize value vectors. With `jitter` false the block
// carries the template's own statistics values — the same estimates the
// warm regime serves one call at a time, so batch/warm is a direct
// measure of what batching amortizes. With `jitter` true each vector
// perturbs one statistic (a real what-if sweep), exercising per-column
// witness validation and occasional warm re-solves.
RegimeRun MeasureBatch(const char* label, int repeats,
                       const std::vector<double>& expected, bool jitter) {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  const size_t m = wl.queries.size();

  // Per-template batches: the real values, each vector optionally with a
  // deterministic +/-2% jitter on one statistic.
  std::vector<std::vector<std::vector<double>>> batches(m);
  for (size_t i = 0; i < m; ++i) {
    const auto stats = advisor.Explain(wl.queries[i]).stats;  // also compiles
    const std::vector<double> base = ValuesOf(stats);
    batches[i].reserve(kBatchSize);
    for (int c = 0; c < kBatchSize; ++c) {
      std::vector<double> values = base;
      if (jitter) {
        const size_t j = static_cast<size_t>(c) % values.size();
        values[j] *= 0.98 + 0.04 * ((c * 2654435761u >> 16) % 1000) / 1000.0;
      }
      batches[i].push_back(std::move(values));
    }
  }

  const AdvisorMetrics before = advisor.metrics();
  int sweeps = 0;
  double secs = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  do {
    for (size_t i = 0; i < m; ++i) {
      const std::vector<double> ests =
          advisor.EstimateLog2Batch(wl.queries[i], batches[i]);
      benchmark::DoNotOptimize(ests.data());
      const double tolerance = jitter ? 1.0 : 1e-6;
      if (std::abs(ests[0] - expected[i]) > tolerance) {
        std::printf("BATCH MISMATCH on %s (%s): %f vs %f\n",
                    wl.queries[i].name().c_str(), label, ests[0], expected[i]);
      }
    }
    ++sweeps;
    secs = Seconds(t0);
  } while (sweeps < repeats || secs < kMinMeasureSeconds);
  const AdvisorMetrics after = advisor.metrics();
  RegimeRun run;
  run.label = label;
  run.batch_size = kBatchSize;
  run.repeats = sweeps;
  run.est_per_s = static_cast<double>(sweeps) * m * kBatchSize / secs;
  FillLpWork(run, before, after);
  CollectKernelTable(run, [&] {
    for (size_t i = 0; i < m; ++i) {
      const std::vector<double> ests =
          advisor.EstimateLog2Batch(wl.queries[i], batches[i]);
      benchmark::DoNotOptimize(ests.data());
    }
  });
  return run;
}

// ---------------------------------------------------------------------------
// Fixed-seed Γn pivot workload: compile the cutting-plane bound at n = 8
// under one pricing rule and count the LP work. Pivot counts are
// deterministic per seed (no wall-clock in the loop), which is what lets
// compare_throughput.py gate on them.

struct GammaRun {
  const char* pricing;
  uint64_t pivots = 0;
  uint64_t phase1 = 0, phase2 = 0, dual = 0;
  uint64_t refactorizations = 0;
  uint64_t ft_updates = 0;
  uint64_t rejected = 0;
  uint64_t devex_resets = 0;
  // Cut-growth accounting (lp/simplex.h): rounds served by the warm
  // row-append path, dual pivots spent repairing appended rows, rows
  // appended, and appends whose LU fill forced a refactorization.
  uint64_t warm_cut_rounds = 0;
  uint64_t dual_repair_pivots = 0;
  uint64_t row_appends = 0;
  uint64_t append_refactorizations = 0;
  double seconds = 0.0;
};

// The statistics generator of the differential harness's n = 8 acceptance
// test — one shared definition (datagen/gamma_stats.h), so the gated
// pivot counts always measure the LP population the harness validates.
std::vector<ConcreteStatistic> GammaStats(uint64_t seed, int n, int count) {
  Rng rng(seed);
  return RandomSimpleGammaStats(rng, n, count);
}

GammaRun MeasureGammaPivots(PricingRule rule, const char* label, int n,
                            std::initializer_list<uint64_t> seeds,
                            int stat_count,
                            CutWarmStart warm_start = CutWarmStart::kOn) {
  GammaRun run;
  run.pricing = label;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t seed : seeds) {
    const std::vector<ConcreteStatistic> stats =
        GammaStats(12345 ^ seed, n, stat_count);
    EngineOptions cut;
    cut.full_lattice_max_n = 4;  // force cutting-plane mode
    cut.simplex.pricing = rule;
    // Pin the cut warm start too: a stray LPB_LP_CUT_WARM=0 in the runner
    // environment must not skew the CI-gated counters off the path the
    // baseline was recorded from. The *_cold lanes pin kOff instead: they
    // measure the recompile-per-round growth loop, where column pricing
    // still differentiates the rules (warm appends repair via dual
    // simplex, so the warm lanes pivot identically under either rule).
    cut.simplex.cut_warm_start = warm_start;
    auto compiled =
        FindBoundEngine("gamma")->Compile(StructureOf(n, stats), cut);
    // Compile-and-evaluate, then one warm re-evaluation at scaled values —
    // the cut-growth path plus the warm witness path, both counted.
    const BoundResult cold = compiled->Evaluate(ValuesOf(stats), false);
    std::vector<double> scaled = ValuesOf(stats);
    for (double& v : scaled) v *= 1.05;
    const BoundResult warm = compiled->Evaluate(scaled, false);
    for (const BoundResult* r : {&cold, &warm}) {
      run.pivots += static_cast<uint64_t>(r->lp_stats.TotalPivots());
      run.phase1 += static_cast<uint64_t>(r->lp_stats.phase1_pivots);
      run.phase2 += static_cast<uint64_t>(r->lp_stats.phase2_pivots);
      run.dual += static_cast<uint64_t>(r->lp_stats.dual_pivots);
      run.refactorizations +=
          static_cast<uint64_t>(r->lp_stats.refactorizations);
      run.ft_updates += static_cast<uint64_t>(r->lp_stats.ft_updates);
      run.rejected += static_cast<uint64_t>(r->lp_stats.rejected_updates);
      run.devex_resets += static_cast<uint64_t>(r->lp_stats.devex_resets);
      run.warm_cut_rounds += static_cast<uint64_t>(r->lp_stats.warm_cut_rounds);
      run.dual_repair_pivots +=
          static_cast<uint64_t>(r->lp_stats.dual_repair_pivots);
      run.row_appends += static_cast<uint64_t>(r->lp_stats.row_appends);
      run.append_refactorizations +=
          static_cast<uint64_t>(r->lp_stats.append_refactorizations);
    }
  }
  run.seconds = Seconds(t0);
  return run;
}

// ---------------------------------------------------------------------------
// Cutting-plane batch regime: one compiled Γn cutting bound in steady state
// (cut pool converged), a block of jittered value vectors — scalar Evaluate
// per vector vs one EvaluateBatch riding the shared cut pool and the
// multi-RHS resolve. The block resolve amortizes the factorization and
// cached-duals reads across witness-valid columns; the batch rate is gated
// against the baseline's, the batch/scalar ratio is informational.

struct CutBatchRun {
  const char* backend = "revised";  // JSON key of the baseline's lane
  double scalar_per_s = 0.0;
  double batch_per_s = 0.0;
  int batch_size = kBatchSize;
  int repeats = 0;
};

CutBatchRun MeasureCutBatch() {
  const int n = 7;
  // Wider than the JOB-regime kBatchSize: the relaxed
  // block resolve pays one pivot episode per *distinct optimal basis* in
  // the block (not per column), so a larger block amortizes the episode,
  // the post-episode re-seed, and the block's one full FTRAN re-price
  // over more witness-served columns.
  constexpr int kCutBlock = 512;
  const std::vector<ConcreteStatistic> stats = GammaStats(0xabcdull, n, 10);
  EngineOptions cut;
  cut.full_lattice_max_n = 4;  // force cutting-plane mode
  cut.simplex.cut_warm_start = CutWarmStart::kOn;
  const BoundStructure structure = StructureOf(n, stats);
  const BoundEngine* engine = FindBoundEngine("gamma");
  auto scalar_bound = engine->Compile(structure, cut);
  auto batch_bound = engine->Compile(structure, cut);

  // Jittered block: same deterministic +/-2% scheme as the JOB batch
  // regime, so most columns stay witness-valid once the pool converges.
  std::vector<std::vector<double>> batch;
  batch.reserve(kCutBlock);
  const std::vector<double> base = ValuesOf(stats);
  for (int c = 0; c < kCutBlock; ++c) {
    std::vector<double> values = base;
    const size_t j = static_cast<size_t>(c) % values.size();
    values[j] *= 0.98 + 0.04 * ((c * 2654435761u >> 16) % 1000) / 1000.0;
    batch.push_back(std::move(values));
  }
  // Converge both cut pools outside the timed loops.
  for (const std::vector<double>& values : batch) {
    benchmark::DoNotOptimize(scalar_bound->Evaluate(values, false).log2_bound);
  }
  benchmark::DoNotOptimize(batch_bound->EvaluateBatch(batch, false).data());

  CutBatchRun run;
  run.batch_size = kCutBlock;
  int sweeps = 0;
  double secs = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  do {
    for (const std::vector<double>& values : batch) {
      benchmark::DoNotOptimize(
          scalar_bound->Evaluate(values, false).log2_bound);
    }
    ++sweeps;
    secs = Seconds(t0);
  } while (secs < kMinMeasureSeconds);
  run.scalar_per_s = static_cast<double>(sweeps) * kCutBlock / secs;

  sweeps = 0;
  t0 = std::chrono::steady_clock::now();
  do {
    const std::vector<BoundResult> results =
        batch_bound->EvaluateBatch(batch, false);
    benchmark::DoNotOptimize(results.data());
    ++sweeps;
    secs = Seconds(t0);
  } while (secs < kMinMeasureSeconds);
  run.batch_per_s = static_cast<double>(sweeps) * kCutBlock / secs;
  run.repeats = sweeps;
  return run;
}

// ---------------------------------------------------------------------------
// Serve regime (src/serve/): N client threads submit single estimates to
// an AdvisorService over a Zipf-skewed template mix, with an invalidation
// ticker churning statistics concurrently — the advisor-as-a-service
// deployment scenario. Each client keeps a small pipeline of outstanding
// futures (an optimizer pricing several candidates at once), so the
// admission queues refill while workers resolve and batches coalesce past
// the client count even on few cores. The gate compares aggregate
// throughput against the same-process single-threaded scalar-warm rate
// (warm_ratio): admission batching must recover the batch path's
// amortization from purely scalar traffic, so the ratio is gated >= 3x
// alongside mean coalesced batch size > 1, a p99 ceiling, and the
// norm-cache hit rate. Two effects stack to clear 3x on a single core:
// deep admission batches amortize the multi-RHS resolve, and worker-side
// dedup of identical queries (the Zipf mix repeats hot templates) turns
// a ~1000-request batch into ~33 distinct evaluations (dedup_factor).

struct ServeRun {
  const char* backend = "revised";  // JSON key of the baseline's lane
  int clients = 0;
  int workers = 0;
  int pipeline = 0;
  double est_per_s = 0.0;
  double warm_ratio = 0.0;  // vs the scalar-warm regime, same process
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double mean_batch = 0.0;
  double dedup_factor = 0.0;  // requests per distinct evaluated query
  uint64_t max_batch = 0;
  uint64_t batches = 0;
  uint64_t requests = 0;
  uint64_t evaluated = 0;
  uint64_t rejected = 0;
  uint64_t max_queue_depth = 0;
  // Norm-cache traffic during the measured window (AdvisorMetrics deltas)
  // plus the store's resident footprint after it.
  uint64_t norm_hits = 0, norm_misses = 0, norm_shard_locks = 0;
  size_t cache_bytes = 0;
  uint64_t invalidations = 0;
};

ServeRun MeasureServe(double warm_rate) {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  for (const Query& q : wl.queries) advisor.EstimateLog2(q);  // compile

  ServeRun run;
  run.clients = 16;
  run.pipeline = 128;
  AdvisorServiceOptions sopt;
  // One worker even on wide machines: admission batching wants requests
  // to pile up behind a busy worker (deep batches maximize both the
  // multi-RHS amortization and the identical-query dedup), and the
  // resolve itself is single-threaded per batch anyway.
  sopt.workers = 1;
  sopt.max_batch = 2048;
  sopt.batch_window_us = 100;
  sopt.queue_capacity = 4096;
  run.workers = sopt.workers;
  AdvisorService service(advisor, sopt);

  // Templates wrapped once for the zero-copy submit path: clients hand
  // the service shared ownership instead of deep-copying a Query per
  // request (the deep copy would otherwise dominate client-side cost).
  std::vector<std::shared_ptr<const Query>> shared;
  shared.reserve(wl.queries.size());
  for (const Query& q : wl.queries) {
    shared.push_back(std::make_shared<const Query>(q));
  }

  const AdvisorMetrics before = advisor.metrics();
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration<double>(2 * kMinMeasureSeconds);
  std::vector<std::thread> clients;
  clients.reserve(run.clients);
  for (int c = 0; c < run.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(7000 + c);
      // Zipf-skewed template mix: a few hot templates dominate, as in a
      // plan cache — the case admission-batch query dedup is built for.
      ZipfSampler zipf(wl.queries.size(), 0.8);
      std::vector<std::future<double>> inflight;
      while (std::chrono::steady_clock::now() < deadline) {
        inflight.clear();
        for (int k = 0; k < run.pipeline; ++k) {
          inflight.push_back(service.SubmitLog2(shared[zipf.Sample(rng)]));
        }
        for (std::future<double>& f : inflight) {
          benchmark::DoNotOptimize(f.get());
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    Rng rng(4242);
    const std::vector<std::string> names = wl.catalog.Names();
    while (!stop.load(std::memory_order_relaxed)) {
      service.Invalidate(names[rng.Uniform(names.size())]);
      ++run.invalidations;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& client : clients) client.join();
  const double secs = Seconds(t0);
  stop.store(true);
  ticker.join();
  service.Shutdown();

  const AdvisorServiceMetrics sm = service.metrics();
  const AdvisorMetrics after = advisor.metrics();
  run.est_per_s = static_cast<double>(sm.completed) / secs;
  run.warm_ratio = warm_rate > 0 ? run.est_per_s / warm_rate : 0.0;
  run.p50_us = sm.latency.p50_ns / 1e3;
  run.p99_us = sm.latency.p99_ns / 1e3;
  run.p999_us = sm.latency.p999_ns / 1e3;
  run.mean_batch = sm.MeanBatchSize();
  run.dedup_factor = sm.DedupFactor();
  run.max_batch = sm.max_coalesced;
  run.batches = sm.batches;
  run.requests = sm.completed;
  run.evaluated = sm.evaluated;
  run.rejected = sm.rejected;
  run.max_queue_depth = sm.max_queue_depth;
  run.norm_hits = after.norm_hits - before.norm_hits;
  run.norm_misses = after.norm_misses - before.norm_misses;
  run.norm_shard_locks = after.norm_shard_locks - before.norm_shard_locks;
  run.cache_bytes = advisor.CacheBytes();
  return run;
}

// ---------------------------------------------------------------------------
// Optimizer regime (src/optimizer/): full DPsize join-order optimization
// over every JOB template, plans/s. The enumeration counters are exactly
// deterministic (connectivity-driven, independent of estimate values), so
// compare_throughput.py gates probe and batch counts with zero tolerance:
// a probe-count explosion means the one-batch-per-DP-level discipline
// broke. On the bound lane the advisor-side batch counters double-check
// the discipline from the advisor's side (advisor_batch_calls must equal
// the optimizer's own batch_calls).

struct OptimizerRun {
  const char* model;    // "bound" or "traditional"
  const char* backend;  // "revised" for the bound lane, "-" otherwise
  double plans_per_s = 0.0;
  int repeats = 0;
  size_t queries = 0;
  // One workload sweep's enumeration counters (deterministic per build).
  uint64_t probes = 0;
  uint64_t batch_calls = 0;
  uint64_t dp_levels = 0;
  uint64_t memo_entries = 0;
  std::vector<uint64_t> probes_per_level;  // summed over the workload
  // AdvisorMetrics deltas across the whole timed run (bound lanes only).
  uint64_t advisor_batch_calls = 0;
  uint64_t advisor_batch_probes = 0;
  uint64_t witness = 0, warm = 0, cold = 0;
};

OptimizerRun MeasureOptimizer(bool bound_model, const char* model_label,
                              int repeats) {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel advisor_model(advisor);
  TraditionalCardinalityModel trad_model(wl.catalog);
  CardinalityModel& model =
      bound_model ? static_cast<CardinalityModel&>(advisor_model)
                  : static_cast<CardinalityModel&>(trad_model);
  // Left-deep bottleneck DP: the mode whose plans execute verbatim through
  // CountByHashJoin, and the one the plan-quality section scores.
  JoinOrderOptions jopt;
  jopt.left_deep = true;
  jopt.objective = CostObjective::kPeakIntermediate;

  OptimizerRun run;
  run.model = model_label;
  run.backend = bound_model ? "revised" : "-";
  run.queries = wl.queries.size();

  // One untimed sweep: warms the advisor's compiled-bound caches (the
  // deployment scenario — templates repeat) and collects the
  // deterministic enumeration counters.
  for (const Query& q : wl.queries) {
    JoinOrderOptimizer dp(q, model, jopt);
    dp.Optimize();
    const OptimizerStats& s = dp.stats();
    run.probes += s.probes;
    run.batch_calls += s.batch_calls;
    run.dp_levels += static_cast<uint64_t>(s.dp_levels);
    run.memo_entries += s.memo_entries;
    if (run.probes_per_level.size() < s.probes_per_level.size()) {
      run.probes_per_level.resize(s.probes_per_level.size(), 0);
    }
    for (size_t k = 0; k < s.probes_per_level.size(); ++k) {
      run.probes_per_level[k] += s.probes_per_level[k];
    }
  }

  const AdvisorMetrics before = advisor.metrics();
  int sweeps = 0;
  double secs = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  do {
    for (const Query& q : wl.queries) {
      JoinOrderOptimizer dp(q, model, jopt);
      benchmark::DoNotOptimize(dp.Optimize().cost());
    }
    ++sweeps;
    secs = Seconds(t0);
  } while (sweeps < repeats || secs < kMinMeasureSeconds);
  const AdvisorMetrics after = advisor.metrics();
  run.repeats = sweeps;
  run.plans_per_s =
      static_cast<double>(sweeps) * static_cast<double>(run.queries) / secs;
  run.advisor_batch_calls = after.batch_calls - before.batch_calls;
  run.advisor_batch_probes = after.batch_probes - before.batch_probes;
  run.witness = after.witness_hits - before.witness_hits;
  run.warm = after.warm_resolves - before.warm_resolves;
  run.cold = after.cold_solves - before.cold_solves;
  return run;
}

// Untimed plan-quality comparison: optimize every scoring-set query (the
// JOB templates small enough to execute at bench scale) under the bound
// model, the traditional model, and the greedy baseline, execute all
// three plans through CountByHashJoin, and sum the *actual* peak
// materialized intermediates. The synthetic workload is fixed-seed, so
// the sums are deterministic and compare_throughput.py gates
// bound <= traditional and bound <= greedy exactly.

struct PlanQuality {
  int queries = 0;
  uint64_t bound_peak_sum = 0;
  uint64_t traditional_peak_sum = 0;
  uint64_t greedy_peak_sum = 0;
  int bound_worse_than_traditional = 0;  // per-query count, informational
  int bound_worse_than_greedy = 0;
};

uint64_t PeakIntermediate(const HashJoinStats& s) {
  uint64_t peak = 0;
  for (uint64_t v : s.intermediate_sizes) peak = std::max(peak, v);
  return peak;
}

PlanQuality MeasurePlanQuality() {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel bound_model(advisor);
  TraditionalCardinalityModel trad_model(wl.catalog);
  JoinOrderOptions jopt;
  jopt.left_deep = true;
  jopt.objective = CostObjective::kPeakIntermediate;

  PlanQuality quality;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 8) continue;  // keep the executed joins affordable
    JoinOrderOptimizer bound_dp(q, bound_model, jopt);
    JoinOrderOptimizer trad_dp(q, trad_model, jopt);
    const std::vector<int> bound_order = bound_dp.Optimize().AtomOrder();
    const std::vector<int> trad_order = trad_dp.Optimize().AtomOrder();
    const std::vector<int> greedy_order = GreedyJoinOrder(q, bound_model);
    const HashJoinStats bound_run =
        CountByHashJoin(q, wl.catalog, bound_order);
    const HashJoinStats trad_run = CountByHashJoin(q, wl.catalog, trad_order);
    const HashJoinStats greedy_run =
        CountByHashJoin(q, wl.catalog, greedy_order);
    if (!bound_run.ok || !trad_run.ok || !greedy_run.ok) {
      std::printf("PLAN EXEC FAILED on %s: %s\n", q.name().c_str(),
                  (!bound_run.ok  ? bound_run.error
                   : !trad_run.ok ? trad_run.error
                                  : greedy_run.error)
                      .c_str());
      continue;
    }
    const uint64_t bound_peak = PeakIntermediate(bound_run);
    const uint64_t trad_peak = PeakIntermediate(trad_run);
    const uint64_t greedy_peak = PeakIntermediate(greedy_run);
    ++quality.queries;
    quality.bound_peak_sum += bound_peak;
    quality.traditional_peak_sum += trad_peak;
    quality.greedy_peak_sum += greedy_peak;
    if (bound_peak > trad_peak) ++quality.bound_worse_than_traditional;
    if (bound_peak > greedy_peak) ++quality.bound_worse_than_greedy;
  }
  return quality;
}

void PrintCounters(const RegimeRun& run) {
  std::printf(
      "%-28s %14.0f est/s   (%.1fx)   witness=%llu warm=%llu cold=%llu "
      "pivots=%llu refac=%llu\n",
      run.label, run.est_per_s, run.speedup,
      static_cast<unsigned long long>(run.witness),
      static_cast<unsigned long long>(run.warm),
      static_cast<unsigned long long>(run.cold),
      static_cast<unsigned long long>(run.pivots),
      static_cast<unsigned long long>(run.refactorizations));
}

// Human-readable per-kernel cycles/call for one regime — the table the CI
// perf artifact keeps next to the throughput numbers, so a regression can
// be pinned to a kernel, not just a regime.
void PrintKernelTable(const RegimeRun& run) {
  std::printf("  kernels (%s):", run.label);
  for (int k = 0; k < kNumLpKernels; ++k) {
    if (run.kernel_calls[k] == 0) continue;
    std::printf(" %s=%llu/%.0fc", LpKernelName(static_cast<LpKernelId>(k)),
                run.kernel_calls[k],
                static_cast<double>(run.kernel_cycles[k]) /
                    static_cast<double>(run.kernel_calls[k]));
  }
  std::printf("\n");
}

void DumpRunsJson(std::FILE* f, const char* section,
                  const std::vector<RegimeRun>& runs) {
  std::fprintf(f, "  \"%s\": [\n", section);
  for (size_t i = 0; i < runs.size(); ++i) {
    const RegimeRun& run = runs[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"est_per_s\": %.1f, "
                 "\"speedup\": %.2f, \"batch_size\": %d, "
                 "\"repeats\": %d, "
                 "\"witness\": %llu, \"warm\": %llu, \"cold\": %llu, "
                 "\"pivots\": %llu, \"refactorizations\": %llu,\n"
                 "     \"kernels\": [",
                 run.backend, run.est_per_s, run.speedup, run.batch_size,
                 run.repeats,
                 static_cast<unsigned long long>(run.witness),
                 static_cast<unsigned long long>(run.warm),
                 static_cast<unsigned long long>(run.cold),
                 static_cast<unsigned long long>(run.pivots),
                 static_cast<unsigned long long>(run.refactorizations));
    bool first = true;
    for (int k = 0; k < kNumLpKernels; ++k) {
      if (run.kernel_calls[k] == 0) continue;
      std::fprintf(f, "%s\n      {\"name\": \"%s\", \"calls\": %llu, "
                   "\"cycles\": %llu}",
                   first ? "" : ",", LpKernelName(static_cast<LpKernelId>(k)),
                   run.kernel_calls[k], run.kernel_cycles[k]);
      first = false;
    }
    std::fprintf(f, "]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
}

void PrintTable() {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);

  // Per-query statistics, assembled once through the advisor so cold and
  // warm paths see identical inputs (Explain also pre-warms the caches,
  // which is exactly the deployment scenario: templates repeat).
  std::vector<std::vector<ConcreteStatistic>> stats;
  std::vector<double> expected;
  for (const Query& q : wl.queries) {
    auto explanation = advisor.Explain(q);
    stats.push_back(std::move(explanation.stats));
    expected.push_back(explanation.bound.log2_bound);
  }

  const int kRepeats = 30;
  const size_t m = wl.queries.size();

  // Cold: fresh LP build + solve per estimate.
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < m; ++i) {
      benchmark::DoNotOptimize(
          LpNormBound(wl.queries[i].num_vars(), stats[i]).log2_bound);
    }
  }
  const double cold_s = Seconds(t0);
  const double n_est = static_cast<double>(kRepeats * m);
  const double cold_rate = n_est / cold_s;

  std::vector<RegimeRun> warm_runs = {
      MeasureWarm("warm revised", kRepeats, expected),
  };
  // Fewer repeats for the batch regimes: each repeat serves
  // kBatchSize x the estimates.
  const int batch_repeats = std::max(1, kRepeats / 4);
  std::vector<RegimeRun> batch_runs = {
      MeasureBatch("batch revised", batch_repeats, expected,
                   /*jitter=*/false),
  };
  std::vector<RegimeRun> jitter_runs = {
      MeasureBatch("batch revised what-if", batch_repeats, expected,
                   /*jitter=*/true),
  };
  for (RegimeRun& run : warm_runs) run.speedup = run.est_per_s / cold_rate;
  for (RegimeRun& run : batch_runs) run.speedup = run.est_per_s / cold_rate;
  for (RegimeRun& run : jitter_runs) run.speedup = run.est_per_s / cold_rate;

  // Pivot-count workload: the fixed-seed Γn cutting-plane compile at
  // n = 8, once per pricing rule (pinned, so LPB_LP_PRICING cannot skew
  // the dantzig baseline lane).
  std::vector<GammaRun> gamma_runs = {
      MeasureGammaPivots(PricingRule::kDantzig, "dantzig", 8,
                         {0x5151ull, 0x1234ull, 0x9999ull}, 12),
      MeasureGammaPivots(PricingRule::kDevex, "devex", 8,
                         {0x5151ull, 0x1234ull, 0x9999ull}, 12),
      // Cold-growth lanes (cut_warm_start off): the recompile-per-round
      // loop the devex-vs-dantzig pricing bar was calibrated on, and the
      // denominator for the warm-append pivot-drop gate.
      MeasureGammaPivots(PricingRule::kDantzig, "dantzig_cold", 8,
                         {0x5151ull, 0x1234ull, 0x9999ull}, 12,
                         CutWarmStart::kOff),
      MeasureGammaPivots(PricingRule::kDevex, "devex_cold", 8,
                         {0x5151ull, 0x1234ull, 0x9999ull}, 12,
                         CutWarmStart::kOff),
  };
  // The n = 10 lane exists because warm row appends make it affordable at
  // all — the pre-append cold-growth loop re-solved two-phase per round
  // and took minutes here. One seed, devex: the gate pins pivots (exact)
  // and a generous wall-clock ceiling (machine-dependent).
  std::vector<GammaRun> gamma10_runs = {
      MeasureGammaPivots(PricingRule::kDevex, "devex", 10, {0x5151ull}, 14),
  };
  // Cutting-plane batch regime: shared cut pool + multi-RHS resolve vs the
  // scalar evaluate sequence, steady state.
  std::vector<CutBatchRun> cut_batch_runs = {MeasureCutBatch()};
  // Serve regime: 16 clients x pipelined single estimates through the
  // AdvisorService; warm_ratio divides by the same-process warm regime
  // above, so the gate is machine-independent.
  std::vector<ServeRun> serve_runs = {MeasureServe(warm_runs[0].est_per_s)};
  // Optimizer regime: full DPsize join ordering per template. The
  // traditional lane is the no-LP-at-all comparison point.
  const int optimizer_repeats = std::max(1, kRepeats / 10);
  std::vector<OptimizerRun> optimizer_runs = {
      MeasureOptimizer(true, "bound", optimizer_repeats),
      MeasureOptimizer(false, "traditional", optimizer_repeats),
  };
  const PlanQuality plan_quality = MeasurePlanQuality();

  std::printf("== Estimator throughput, %zu JOB templates x %d repeats ==\n",
              m, kRepeats);
  std::printf("%-28s %14.0f est/s\n", "cold (LP per estimate)", cold_rate);
  for (const RegimeRun& run : warm_runs) PrintCounters(run);
  for (const RegimeRun& run : batch_runs) PrintCounters(run);
  for (const RegimeRun& run : jitter_runs) PrintCounters(run);
  std::printf("-- per-kernel calls/cycles-per-call (one timing-on sweep) --\n");
  for (const auto* runs : {&warm_runs, &batch_runs, &jitter_runs}) {
    for (const RegimeRun& run : *runs) PrintKernelTable(run);
  }
  for (size_t i = 0; i < warm_runs.size() && i < batch_runs.size(); ++i) {
    std::printf("%-28s %14.2fx  (batch of %d vs scalar warm, %s)\n",
                "batch/scalar", batch_runs[i].est_per_s / warm_runs[i].est_per_s,
                batch_runs[i].batch_size, warm_runs[i].backend);
  }
  auto print_gamma = [](const GammaRun& run) {
    std::printf(
        "%-28s pivots=%-6llu (p1=%llu p2=%llu dual=%llu)  refac=%llu "
        "ft=%llu rejected=%llu resets=%llu\n"
        "%-28s warm_rounds=%llu repair=%llu appends=%llu append_refac=%llu  "
        "%.2fs\n",
        run.pricing, static_cast<unsigned long long>(run.pivots),
        static_cast<unsigned long long>(run.phase1),
        static_cast<unsigned long long>(run.phase2),
        static_cast<unsigned long long>(run.dual),
        static_cast<unsigned long long>(run.refactorizations),
        static_cast<unsigned long long>(run.ft_updates),
        static_cast<unsigned long long>(run.rejected),
        static_cast<unsigned long long>(run.devex_resets), "",
        static_cast<unsigned long long>(run.warm_cut_rounds),
        static_cast<unsigned long long>(run.dual_repair_pivots),
        static_cast<unsigned long long>(run.row_appends),
        static_cast<unsigned long long>(run.append_refactorizations),
        run.seconds);
  };
  std::printf("\n== Cutting-plane Gamma_n pivot counts, n = 8, 3 seeds ==\n");
  for (const GammaRun& run : gamma_runs) print_gamma(run);
  if (gamma_runs.size() == 4 && gamma_runs[2].pivots > 0) {
    std::printf("%-28s %14.2f  (cold-growth devex / dantzig pivots)\n",
                "devex/dantzig (cold)",
                static_cast<double>(gamma_runs[3].pivots) /
                    static_cast<double>(gamma_runs[2].pivots));
    std::printf("%-28s %14.2f  (warm-append devex / cold devex pivots)\n",
                "warm/cold (devex)",
                static_cast<double>(gamma_runs[1].pivots) /
                    static_cast<double>(gamma_runs[3].pivots));
  }
  std::printf("\n== Cutting-plane Gamma_n pivot counts, n = 10, 1 seed ==\n");
  for (const GammaRun& run : gamma10_runs) print_gamma(run);
  std::printf("\n== Cutting-plane batch vs scalar sequence, n = 7 ==\n");
  for (const CutBatchRun& run : cut_batch_runs) {
    std::printf(
        "%-28s scalar %10.0f est/s   batch-of-%d %10.0f est/s   (%.2fx)\n",
        run.backend, run.scalar_per_s, run.batch_size, run.batch_per_s,
        run.batch_per_s / run.scalar_per_s);
  }
  std::printf("\n== Advisor serving, admission batching ==\n");
  for (const ServeRun& run : serve_runs) {
    std::printf(
        "%-8s %d clients x pipeline %d, %d workers: %10.0f est/s "
        "(%.2fx scalar warm)\n"
        "         p50=%.0fus p99=%.0fus p999=%.0fus  batches=%llu "
        "mean=%.1f max=%llu dedup=%.1fx depth=%llu rejected=%llu\n"
        "         norm hits=%llu misses=%llu shard_locks=%llu "
        "cache=%zuB invalidations=%llu\n",
        run.backend, run.clients, run.pipeline, run.workers, run.est_per_s,
        run.warm_ratio, run.p50_us, run.p99_us, run.p999_us,
        static_cast<unsigned long long>(run.batches), run.mean_batch,
        static_cast<unsigned long long>(run.max_batch), run.dedup_factor,
        static_cast<unsigned long long>(run.max_queue_depth),
        static_cast<unsigned long long>(run.rejected),
        static_cast<unsigned long long>(run.norm_hits),
        static_cast<unsigned long long>(run.norm_misses),
        static_cast<unsigned long long>(run.norm_shard_locks),
        run.cache_bytes,
        static_cast<unsigned long long>(run.invalidations));
  }
  std::printf("\n== Join-order optimizer, DPsize over %zu JOB templates ==\n",
              m);
  for (const OptimizerRun& run : optimizer_runs) {
    std::printf(
        "%-12s %-8s %10.1f plans/s   probes=%llu batches=%llu levels=%llu "
        "memo=%llu\n",
        run.model, run.backend, run.plans_per_s,
        static_cast<unsigned long long>(run.probes),
        static_cast<unsigned long long>(run.batch_calls),
        static_cast<unsigned long long>(run.dp_levels),
        static_cast<unsigned long long>(run.memo_entries));
    if (run.advisor_batch_calls > 0) {
      std::printf(
          "%-12s %-8s advisor: batches=%llu probes=%llu witness=%llu "
          "warm=%llu cold=%llu\n",
          "", "", static_cast<unsigned long long>(run.advisor_batch_calls),
          static_cast<unsigned long long>(run.advisor_batch_probes),
          static_cast<unsigned long long>(run.witness),
          static_cast<unsigned long long>(run.warm),
          static_cast<unsigned long long>(run.cold));
    }
  }
  std::printf(
      "plan quality (executed, %d queries <= 8 atoms): peak-intermediate "
      "sums bound=%llu traditional=%llu greedy=%llu (bound worse on %d/%d "
      "vs traditional, %d/%d vs greedy)\n",
      plan_quality.queries,
      static_cast<unsigned long long>(plan_quality.bound_peak_sum),
      static_cast<unsigned long long>(plan_quality.traditional_peak_sum),
      static_cast<unsigned long long>(plan_quality.greedy_peak_sum),
      plan_quality.bound_worse_than_traditional, plan_quality.queries,
      plan_quality.bound_worse_than_greedy, plan_quality.queries);
  std::printf("\n");

  if (const char* json_path = std::getenv("LPB_BENCH_JSON")) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      // CPU/compiler/dispatch header: per-kernel cycle tables are only
      // comparable between artifacts produced by the same feature set —
      // compare_throughput.py warns (without failing) on a mismatch.
      std::fprintf(f,
                   "{\n  \"workload\": \"job-templates\",\n"
                   "  \"templates\": %zu,\n  \"cold_warm_repeats\": %d,\n"
                   "  \"batch_size\": %d,\n"
                   "  \"cpu_avx2\": %s,\n  \"cpu_fma\": %s,\n"
                   "  \"compiler\": \"%s\",\n  \"simd_dispatch\": \"%s\",\n"
                   "  \"cold_est_per_s\": %.1f,\n",
                   m, kRepeats, kBatchSize, CpuFlagAvx2() ? "true" : "false",
                   CpuFlagFma() ? "true" : "false", CompilerId(),
                   LpKernelDispatchName(ResolveSimdMode(SimplexOptions{})),
                   cold_rate);
      DumpRunsJson(f, "warm", warm_runs);
      std::fprintf(f, ",\n");
      DumpRunsJson(f, "batch", batch_runs);
      std::fprintf(f, ",\n");
      DumpRunsJson(f, "batch_what_if", jitter_runs);
      auto dump_gamma = [f](const char* section,
                            const std::vector<GammaRun>& runs) {
        std::fprintf(f, ",\n  \"%s\": [\n", section);
        for (size_t i = 0; i < runs.size(); ++i) {
          const GammaRun& run = runs[i];
          std::fprintf(
              f,
              "    {\"pricing\": \"%s\", \"pivots\": %llu, "
              "\"phase1\": %llu, \"phase2\": %llu, \"dual\": %llu, "
              "\"refactorizations\": %llu, \"ft_updates\": %llu, "
              "\"rejected_updates\": %llu, \"devex_resets\": %llu, "
              "\"warm_cut_rounds\": %llu, \"dual_repair_pivots\": %llu, "
              "\"row_appends\": %llu, \"append_refactorizations\": %llu, "
              "\"seconds\": %.3f}%s\n",
              run.pricing, static_cast<unsigned long long>(run.pivots),
              static_cast<unsigned long long>(run.phase1),
              static_cast<unsigned long long>(run.phase2),
              static_cast<unsigned long long>(run.dual),
              static_cast<unsigned long long>(run.refactorizations),
              static_cast<unsigned long long>(run.ft_updates),
              static_cast<unsigned long long>(run.rejected),
              static_cast<unsigned long long>(run.devex_resets),
              static_cast<unsigned long long>(run.warm_cut_rounds),
              static_cast<unsigned long long>(run.dual_repair_pivots),
              static_cast<unsigned long long>(run.row_appends),
              static_cast<unsigned long long>(run.append_refactorizations),
              run.seconds, i + 1 < runs.size() ? "," : "");
        }
        std::fprintf(f, "  ]");
      };
      dump_gamma("gamma_n8", gamma_runs);
      dump_gamma("gamma_n10", gamma10_runs);
      std::fprintf(f, ",\n  \"gamma_cut_batch\": [\n");
      for (size_t i = 0; i < cut_batch_runs.size(); ++i) {
        const CutBatchRun& run = cut_batch_runs[i];
        std::fprintf(f,
                     "    {\"backend\": \"%s\", \"scalar_est_per_s\": %.1f, "
                     "\"batch_est_per_s\": %.1f, \"batch_size\": %d, "
                     "\"ratio\": %.2f}%s\n",
                     run.backend, run.scalar_per_s, run.batch_per_s,
                     run.batch_size, run.batch_per_s / run.scalar_per_s,
                     i + 1 < cut_batch_runs.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"serve\": [\n");
      for (size_t i = 0; i < serve_runs.size(); ++i) {
        const ServeRun& run = serve_runs[i];
        const uint64_t norm_lookups = run.norm_hits + run.norm_misses;
        std::fprintf(
            f,
            "    {\"backend\": \"%s\", \"clients\": %d, \"workers\": %d, "
            "\"pipeline\": %d, \"est_per_s\": %.1f, \"warm_ratio\": %.2f,\n"
            "     \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
            "\"mean_batch\": %.2f, \"max_batch\": %llu, \"batches\": %llu, "
            "\"requests\": %llu, \"evaluated\": %llu, "
            "\"dedup_factor\": %.2f, \"rejected\": %llu, "
            "\"max_queue_depth\": %llu,\n"
            "     \"norm_hits\": %llu, \"norm_misses\": %llu, "
            "\"norm_hit_rate\": %.3f, \"norm_shard_locks\": %llu, "
            "\"cache_bytes\": %zu, \"invalidations\": %llu}%s\n",
            run.backend, run.clients, run.workers, run.pipeline,
            run.est_per_s, run.warm_ratio, run.p50_us, run.p99_us,
            run.p999_us, run.mean_batch,
            static_cast<unsigned long long>(run.max_batch),
            static_cast<unsigned long long>(run.batches),
            static_cast<unsigned long long>(run.requests),
            static_cast<unsigned long long>(run.evaluated), run.dedup_factor,
            static_cast<unsigned long long>(run.rejected),
            static_cast<unsigned long long>(run.max_queue_depth),
            static_cast<unsigned long long>(run.norm_hits),
            static_cast<unsigned long long>(run.norm_misses),
            norm_lookups == 0 ? 0.0
                              : static_cast<double>(run.norm_hits) /
                                    static_cast<double>(norm_lookups),
            static_cast<unsigned long long>(run.norm_shard_locks),
            run.cache_bytes,
            static_cast<unsigned long long>(run.invalidations),
            i + 1 < serve_runs.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"optimizer\": [\n");
      for (size_t i = 0; i < optimizer_runs.size(); ++i) {
        const OptimizerRun& run = optimizer_runs[i];
        std::fprintf(
            f,
            "    {\"model\": \"%s\", \"backend\": \"%s\", "
            "\"plans_per_s\": %.1f, \"repeats\": %d, \"queries\": %zu,\n"
            "     \"probes\": %llu, \"batch_calls\": %llu, "
            "\"dp_levels\": %llu, \"memo_entries\": %llu,\n"
            "     \"advisor_batch_calls\": %llu, "
            "\"advisor_batch_probes\": %llu, "
            "\"witness\": %llu, \"warm\": %llu, \"cold\": %llu,\n"
            "     \"probes_per_level\": [",
            run.model, run.backend, run.plans_per_s, run.repeats, run.queries,
            static_cast<unsigned long long>(run.probes),
            static_cast<unsigned long long>(run.batch_calls),
            static_cast<unsigned long long>(run.dp_levels),
            static_cast<unsigned long long>(run.memo_entries),
            static_cast<unsigned long long>(run.advisor_batch_calls),
            static_cast<unsigned long long>(run.advisor_batch_probes),
            static_cast<unsigned long long>(run.witness),
            static_cast<unsigned long long>(run.warm),
            static_cast<unsigned long long>(run.cold));
        for (size_t k = 0; k < run.probes_per_level.size(); ++k) {
          std::fprintf(f, "%s%llu", k ? ", " : "",
                       static_cast<unsigned long long>(
                           run.probes_per_level[k]));
        }
        std::fprintf(f, "]}%s\n",
                     i + 1 < optimizer_runs.size() ? "," : "");
      }
      std::fprintf(
          f,
          "  ],\n  \"optimizer_plan_quality\": {\"queries\": %d, "
          "\"bound_peak_sum\": %llu, \"traditional_peak_sum\": %llu, "
          "\"greedy_peak_sum\": %llu, "
          "\"bound_worse_than_traditional\": %d, "
          "\"bound_worse_than_greedy\": %d}\n}\n",
          plan_quality.queries,
          static_cast<unsigned long long>(plan_quality.bound_peak_sum),
          static_cast<unsigned long long>(plan_quality.traditional_peak_sum),
          static_cast<unsigned long long>(plan_quality.greedy_peak_sum),
          plan_quality.bound_worse_than_traditional,
          plan_quality.bound_worse_than_greedy);
      std::fclose(f);
      std::printf("wrote %s\n\n", json_path);
    }
  }
}

void BM_ColdEstimate(benchmark::State& state) {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  const size_t i = static_cast<size_t>(state.range(0));
  auto stats = advisor.Explain(wl.queries[i]).stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LpNormBound(wl.queries[i].num_vars(), stats).log2_bound);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdEstimate)->Arg(0)->Arg(8)->Arg(20);

void BM_WarmEstimate(benchmark::State& state) {
  JobWorkload& wl = Workload();
  static CardinalityAdvisor advisor(wl.catalog);
  const size_t i = static_cast<size_t>(state.range(0));
  advisor.EstimateLog2(wl.queries[i]);  // compile outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(advisor.EstimateLog2(wl.queries[i]));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["batch_size"] = 1;
}
BENCHMARK(BM_WarmEstimate)->Arg(0)->Arg(8)->Arg(20);

// Batched what-if probes against one compiled template: one advisor call
// re-prices `batch_size` value vectors. items_processed counts estimates
// (iterations x batch size), so est/s is directly comparable with
// BM_WarmEstimate's.
void BM_BatchEstimate(benchmark::State& state) {
  JobWorkload& wl = Workload();
  static CardinalityAdvisor advisor(wl.catalog);
  const size_t i = static_cast<size_t>(state.range(0));
  const int batch_size = static_cast<int>(state.range(1));
  const auto stats = advisor.Explain(wl.queries[i]).stats;
  const std::vector<std::vector<double>> batch(
      static_cast<size_t>(batch_size), ValuesOf(stats));
  for (auto _ : state) {
    const std::vector<double> ests =
        advisor.EstimateLog2Batch(wl.queries[i], batch);
    benchmark::DoNotOptimize(ests.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
  state.counters["batch_size"] = batch_size;
}
BENCHMARK(BM_BatchEstimate)
    ->Args({0, 16})
    ->Args({0, 256})
    ->Args({8, 16})
    ->Args({8, 256})
    ->Args({20, 16})
    ->Args({20, 256});

// Statistics drift between estimates (value jitter, same structure): the
// witness path re-prices, occasionally falling back to warm/cold re-solves.
void BM_WarmEstimateJitteredValues(benchmark::State& state) {
  JobWorkload& wl = Workload();
  CardinalityAdvisor advisor(wl.catalog);
  const size_t i = static_cast<size_t>(state.range(0));
  auto stats = advisor.Explain(wl.queries[i]).stats;
  auto compiled = FindBoundEngine("auto")->Compile(
      StructureOf(wl.queries[i].num_vars(), stats));
  std::vector<double> values = ValuesOf(stats);
  compiled->Evaluate(values);
  uint64_t tick = 0;
  for (auto _ : state) {
    // Deterministic +/-5% drift on one statistic per call.
    const size_t j = tick % values.size();
    const double jitter = 0.95 + 0.1 * ((tick * 2654435761u >> 16) % 1000) / 1000.0;
    const double saved = values[j];
    values[j] *= jitter;
    benchmark::DoNotOptimize(
        compiled->Evaluate(values, /*want_h_opt=*/false).log2_bound);
    values[j] = saved;
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarmEstimateJitteredValues)->Arg(0)->Arg(8)->Arg(20);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
