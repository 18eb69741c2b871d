// serve_templates_open: open-loop traffic from one generator thread into
// AdvisorService (2 workers), a collector thread timing each request from
// its due time to its future becoming ready, and Invalidate at a fixed
// request-count cadence. Requests are Zipf(0.8) over the 33 JOB templates
// at data scale 0.05, offered at 50k requests/s: batches coalesce and
// repeat queries, so admission batching, in-batch dedup and batched
// assembly do the work. At 100k/s batches grow to ~19, but the p50 spread
// between runs reached 0.30 on a shared 4-core host.
//
// Each run measures the nominal rate (p50, p99) and then a fixed ladder of
// rates, reporting the highest rung that meets the p99 limit with no
// growing backlog.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bounds/bound_engine.h"
#include "common.h"
#include "serve/advisor_service.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.05;
// Requests between invalidations. At the nominal rate every invalidation
// stalls a few hundred requests; a denser cadence would let those stalls
// alone set p99.
constexpr uint64_t kInvalidateEvery = 32768;
constexpr int kWorkers = 2;

// Rates are offered on a fixed geometric ladder, nominal * kLadderStep^k.
// The search starts at the nominal rung, gallops up kGallop rungs at a
// time while rungs pass, then walks up one rung at a time from the last
// passing rung (or down from the nominal rung while rungs fail); the
// result is the highest passing rung below a failing one. A rung passes
// when its p99 latency is within kP99LimitUs and its backlog does not
// grow: the requests outstanding when its schedule ends fit within the
// limit at that rate, and the median latency of its last quarter is at
// most twice that of its first quarter plus kGrowthSlackUs.
constexpr double kLadderStep = 1.05;
constexpr int kGallop = 6;
constexpr int kLadderMinK = -16;
constexpr int kLadderMaxK = 48;
constexpr double kP99LimitUs = 50000.0;
constexpr double kGrowthSlackUs = 1000.0;
// A rung lasts a twentieth of --seconds. A failing rung is retried, up to
// kRungAttempts attempts in all, and passes if any attempt passes: the
// host is shared, and a spell of other tenants' load can take a third of
// the service's capacity for seconds at a time. Interference only lowers
// the rate the service sustains, so the best attempt is the closest to
// the program's own capacity.
constexpr double kRungShare = 0.05;
constexpr int kRungAttempts = 3;

constexpr double kNominalRps = 50000.0;

// Pins the calling thread to one core for its lifetime and restores the
// previous affinity after. The service pins its workers to cores 0 and 1;
// the generator and the collector take cores 2 and 3, so no benchmark
// thread time-shares a core with a worker. Best effort: skipped on
// machines with fewer than four cores or where affinity is refused.
class ScopedPin {
 public:
  explicit ScopedPin(int core) {
    if (std::thread::hardware_concurrency() < 4) return;
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core, &set);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  }
  ~ScopedPin() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct State {
  std::unique_ptr<lpb::JobWorkload> wl;
  std::unique_ptr<lpb::CardinalityAdvisor> advisor;
  std::vector<std::shared_ptr<const lpb::Query>> queries;
};

// Data generation plus the warm-up a deployment does before serving: one
// estimate per template.
State SetUp() {
  State s;
  s.wl = std::make_unique<lpb::JobWorkload>(
      lpb::GenerateJobWorkload(JobOptions(kScale)));
  s.advisor = std::make_unique<lpb::CardinalityAdvisor>(s.wl->catalog);
  for (const lpb::Query& q : s.wl->queries) {
    s.advisor->EstimateLog2(q);
    s.queries.push_back(std::make_shared<const lpb::Query>(q));
  }
  return s;
}

// Cold references for every query, computed on `threads` threads.
std::vector<double> References(lpb::CardinalityAdvisor& advisor,
                               const State& state, int threads) {
  std::vector<double> out(state.queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < out.size(); i = next++) {
        out[i] = ColdReference(advisor, *state.queries[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

struct OpenLoopResult {
  std::vector<double> latency_us;  // due -> future ready
  std::vector<double> late_us;     // due -> submit
  std::vector<uint32_t> sequence;  // query index per request
  std::vector<double> values;
  std::vector<int64_t> due_ns, submit_ns, submitted_ns, ready_ns;
  double seconds = 0.0;
  uint64_t backlog = 0;  // requests outstanding when the schedule ended
  std::vector<std::string> invalidated;
  lpb::AdvisorServiceMetrics service;
};

// Sends `rate` requests/s (Poisson arrivals) for `seconds` into a fresh
// service and waits for every answer.
OpenLoopResult OpenLoop(lpb::CardinalityAdvisor& advisor, const State& state,
                        const lpb::ZipfSampler& zipf,
                        InvalidationOrder& invalidation,
                        uint64_t invalidate_every, lpb::Rng& rng, double rate,
                        double seconds) {
  OpenLoopResult r;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::vector<int64_t> offset(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    offset[i] = static_cast<int64_t>(t * 1e9);
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    r.sequence.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
  }
  r.due_ns.resize(n);
  r.submit_ns.resize(n);
  r.submitted_ns.resize(n);
  r.ready_ns.resize(n);
  r.values.resize(n);
  std::vector<std::future<double>> futures(n);
  std::atomic<size_t> published{0};

  lpb::AdvisorServiceOptions service_options;
  service_options.workers = kWorkers;
  lpb::AdvisorService service(advisor, service_options);

  // The collector stamps each request when its own future becomes ready.
  // The two workers finish requests out of submission order, so waiting on
  // the futures in order would charge a request for the one before it.
  std::thread collector([&] {
    const ScopedPin pin(3);
    std::vector<size_t> pending;
    size_t seen = 0;
    for (size_t done = 0; done < n;) {
      for (const size_t available = published.load(std::memory_order_acquire);
           seen < available; ++seen) {
        pending.push_back(seen);
      }
      size_t kept = 0;
      for (const size_t i : pending) {
        if (futures[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          r.ready_ns[i] = NowNs();
          r.values[i] = futures[i].get();
          ++done;
        } else {
          pending[kept++] = i;
        }
      }
      if (kept == pending.size()) std::this_thread::yield();
      pending.resize(kept);
    }
  });

  const ScopedPin pin(2);
  const int64_t start = NowNs() + 1000000;  // first request due in 1 ms
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + offset[i];
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 200000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 100000));
      }
    }
    if (i > 0 && i % invalidate_every == 0) {
      r.invalidated.push_back(invalidation.Next());
      service.Invalidate(r.invalidated.back());
    }
    r.due_ns[i] = due;
    r.submit_ns[i] = NowNs();
    futures[i] = service.SubmitLog2(state.queries[r.sequence[i]]);
    r.submitted_ns[i] = NowNs();
    published.store(i + 1, std::memory_order_release);
  }
  const lpb::AdvisorServiceMetrics at_end = service.metrics();
  r.backlog = at_end.submitted - at_end.completed;
  collector.join();
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  r.service = service.metrics();
  for (size_t i = 0; i < n; ++i) {
    r.latency_us.push_back(static_cast<double>(r.ready_ns[i] - r.due_ns[i]) /
                           1000.0);
    r.late_us.push_back(static_cast<double>(r.submit_ns[i] - r.due_ns[i]) /
                        1000.0);
  }
  return r;
}

// Latencies split into windows by due time. A window lasts 20 ms or, at
// low rates, long enough to hold 1000 requests, so its p99 has at least
// ten samples beyond it. The host preempts busy threads for 1-15 ms
// several times a second (measured on a shared 4-core host); the median
// over many short windows keeps those stalls from setting the run's p50
// and p99.
std::vector<std::vector<double>> Windows(const OpenLoopResult& r,
                                         double rate) {
  const int64_t window_ns =
      static_cast<int64_t>(std::max(0.02, 1000.0 / rate) * 1e9);
  std::vector<std::vector<double>> windows;
  int64_t window_start = 0;
  for (size_t i = 0; i < r.due_ns.size(); ++i) {
    if (windows.empty() || r.due_ns[i] - window_start >= window_ns) {
      windows.emplace_back();
      window_start = r.due_ns[i];
    }
    windows.back().push_back(r.latency_us[i]);
  }
  return windows;
}

void CheckAnswers(Report& report, const OpenLoopResult& r,
                  const std::vector<double>& reference) {
  for (size_t i = 0; i < r.values.size(); ++i) {
    report.Check(MatchesReference(r.values[i], reference[r.sequence[i]]));
  }
}

}  // namespace

Report RunServeTemplates(const Options& options, Tracer& tracer) {
  Report report;
  const int setups = options.smoke || options.trace ? 1 : 5;
  std::vector<double> setup_s;
  State state;
  for (int i = 0; i < setups; ++i) {
    state = State{};
    const Clock::time_point t0 = Clock::now();
    state = SetUp();
    setup_s.push_back(SecondsSince(t0));
  }
  lpb::CardinalityAdvisor& advisor = *state.advisor;
  std::vector<double> reference = References(advisor, state, 4);
  if (options.wrong_reference) reference[0] += 1.0;
  InvalidationOrder invalidation(state.wl->catalog.Names(), options.seed);
  const lpb::ZipfSampler zipf(state.queries.size(), 0.8);
  lpb::Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 3);
  const auto open_loop = [&](double rate, double seconds) {
    return OpenLoop(advisor, state, zipf, invalidation, kInvalidateEvery, rng,
                    rate, seconds);
  };

  const double seconds = options.smoke ? 0.4 : options.seconds;
  if (!options.trace) {
    OpenLoopResult nominal = open_loop(kNominalRps, seconds * 0.8);
    // Read before the ladder: its request buffers grow with the rate the
    // service sustains, and peak_rss_mb measures the service, not them.
    report.Set("peak_rss_mb", PeakRssMb());
    CheckAnswers(report, nominal, reference);
    const double rung_s = options.smoke ? 0.1 : seconds * kRungShare;
    std::string rungs;
    const auto attempt = [&](int k) {
      const double rate = kNominalRps * std::pow(kLadderStep, k);
      OpenLoopResult rung = open_loop(rate, rung_s);
      CheckAnswers(report, rung, reference);
      const double p99 = Quantile(rung.latency_us, 0.99);
      const size_t quarter = rung.latency_us.size() / 4;
      const double first = Median(std::vector<double>(
          rung.latency_us.begin(), rung.latency_us.begin() + quarter));
      const double last = Median(std::vector<double>(
          rung.latency_us.end() - quarter, rung.latency_us.end()));
      const bool ok =
          p99 <= kP99LimitUs &&
          static_cast<double>(rung.backlog) <= rate * kP99LimitUs / 1e6 &&
          last <= 2.0 * first + kGrowthSlackUs;
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %.0f:p99=%.0fus,backlog=%llu%s", rate,
                    p99, static_cast<unsigned long long>(rung.backlog),
                    ok ? "" : "(fail)");
      rungs += buf;
      return ok;
    };
    const auto passes = [&](int k) {
      for (int a = 0; a < kRungAttempts; ++a) {
        if (attempt(k)) return true;
      }
      return false;
    };
    int k = 0;
    if (passes(0)) {
      const int top = options.smoke ? 1 : kLadderMaxK;
      while (k + kGallop <= top && passes(k + kGallop)) k += kGallop;
      while (k < top && passes(k + 1)) ++k;
    } else {
      do {
        --k;
      } while (k >= kLadderMinK && !passes(k));
    }
    const double max_rps =
        k < kLadderMinK ? 0.0 : kNominalRps * std::pow(kLadderStep, k);
    const double n = static_cast<double>(nominal.latency_us.size());
    report.Set("setup_s", Median(setup_s));
    const std::vector<std::vector<double>> windows =
        Windows(nominal, kNominalRps);
    report.Set("p50_us", WindowedQuantile(windows, 0.50));
    report.Set("tail_us", WindowedQuantile(windows, 0.99));
    report.Set("throughput_per_s", max_rps);
    std::printf("# serve_templates_open: %.0f requests at %.0f/s in %.2f s; "
                "p50_us and tail_us are medians of per-window p50s and p99s "
                "(whole-run p99 %.0f us); mean batch %.2f, dedup %.3f; "
                "ladder (p99 limit %.0f us):%s\n",
                n, kNominalRps, nominal.seconds,
                Quantile(nominal.latency_us, 0.99),
                nominal.service.MeanBatchSize(),
                nominal.service.DedupFactor(), kP99LimitUs,
                rungs.c_str());
    return report;
  }

  // Traced run: one run at the nominal rate gives the service counters.
  // Nothing is recorded while it runs: its request spans are built after
  // from the due, submit and ready times every run takes, so the tracing
  // overhead is 0 by construction. Then the relation layer and assembly
  // are replayed on its invalidations and requests.
  const lpb::AdvisorMetrics before = advisor.metrics();
  const OpenLoopResult traced = open_loop(kNominalRps, seconds);
  const lpb::AdvisorMetrics after = advisor.metrics();
  CheckAnswers(report, traced, reference);
  SetAdvisorLayerMetrics(report, before, after, advisor.CompiledCacheSize());
  const lpb::AdvisorServiceMetrics& sm = traced.service;
  report.Set("serve.service_p50_us", sm.latency.p50_ns / 1000.0);
  report.Set("serve.service_p99_us", sm.latency.p99_ns / 1000.0);
  report.Set("serve.generator_late_us", Quantile(traced.late_us, 0.99));
  report.Set("serve.mean_batch", sm.MeanBatchSize());
  report.Set("serve.dedup_factor", sm.DedupFactor());
  report.Set("serve.evals_per_s",
             static_cast<double>(sm.evaluated) / traced.seconds);
  report.Set("serve.max_queue_depth", static_cast<double>(sm.max_queue_depth));
  report.Set("relation.invalidations",
             static_cast<double>(traced.invalidated.size()));
  const double mean_us = Mean(traced.latency_us);
  const double unattributed_us =
      mean_us - Mean(traced.late_us) - sm.latency.mean_ns / 1000.0;
  report.Set("trace.unattributed_us", unattributed_us);
  report.Set("trace.overhead_us", 0.0);

  const uint32_t n_request = tracer.Intern("serve.request");
  const uint32_t n_submit = tracer.Intern("serve.submit");
  for (size_t i = 0; i < traced.due_ns.size(); ++i) {
    const uint32_t root = tracer.Add(n_request, kNoSpan, i, traced.due_ns[i],
                                     traced.ready_ns[i]);
    tracer.Add(n_submit, root, i, traced.submit_ns[i],
               traced.submitted_ns[i]);
  }

  // Relation-layer replay of the run's invalidations.
  const uint32_t n_recompute = tracer.Intern("relation.recompute");
  const NormKeys keys = CollectNormKeys(advisor, state.wl->queries);
  const std::vector<double> norms = lpb::AdvisorOptions{}.norms;
  double recompute_ns = 0.0;
  for (const std::string& rel : traced.invalidated) {
    const int64_t t0 = NowNs();
    report.Check(RecomputeRelation(state.wl->catalog, keys, rel, norms) == 0);
    const int64_t t1 = NowNs();
    tracer.Add(n_recompute, kNoSpan, 0, t0, t1);
    recompute_ns += static_cast<double>(t1 - t0);
  }
  report.Set("relation.recompute_ms",
             traced.invalidated.empty()
                 ? 0.0
                 : recompute_ns / 1e6 /
                       static_cast<double>(traced.invalidated.size()));

  // Assembly replay, chunked like the service's admission batches.
  const uint32_t n_assemble = tracer.Intern("estimator.assemble");
  const size_t chunk = std::max<size_t>(
      1, static_cast<size_t>(std::lround(traced.service.MeanBatchSize())));
  const size_t replayed = std::min<size_t>(traced.sequence.size(), 20000);
  double assemble_ns = 0.0;
  for (size_t begin = 0; begin < replayed; begin += chunk) {
    std::vector<lpb::Query> batch;
    for (size_t i = begin; i < std::min(replayed, begin + chunk); ++i) {
      batch.push_back(*state.queries[traced.sequence[i]]);
    }
    const int64_t t0 = NowNs();
    advisor.AssembleStatisticsBatch(batch);
    const int64_t t1 = NowNs();
    tracer.Add(n_assemble, kNoSpan, begin, t0, t1);
    assemble_ns += static_cast<double>(t1 - t0);
  }
  report.Set("estimator.assemble_us",
             assemble_ns / 1000.0 / static_cast<double>(replayed));

  // Structure sharing of the request universe, and compile time on a
  // sample of its structures.
  const uint32_t n_compile = tracer.Intern("bounds.compile");
  std::vector<lpb::Query> all;
  for (const auto& q : state.queries) all.push_back(*q);
  const auto stats = advisor.AssembleStatisticsBatch(all);
  std::map<std::string, lpb::BoundStructure> structures;
  for (size_t i = 0; i < all.size(); ++i) {
    const lpb::BoundStructure s = lpb::StructureOf(all[i].num_vars(), stats[i]);
    structures.emplace(lpb::StructureKey(s), s);
  }
  report.Set("bounds.queries_per_structure",
             static_cast<double>(all.size()) /
                 static_cast<double>(structures.size()));
  double compile_ns = 0.0;
  int compiled = 0;
  for (const auto& [key, s] : structures) {
    if (compiled == 32) break;
    const int64_t t0 = NowNs();
    lpb::FindBoundEngine("auto")->Compile(s);
    const int64_t t1 = NowNs();
    tracer.Add(n_compile, kNoSpan, 0, t0, t1);
    compile_ns += static_cast<double>(t1 - t0);
    ++compiled;
  }
  report.Set("bounds.compile_ms", compile_ns / 1e6 / compiled);
  report.Set("trace.spans", static_cast<double>(tracer.size()));
  std::printf("# serve_templates_open traced: %zu requests; e2e mean %.1f "
              "us = generator late %.1f + service %.1f + unattributed %.1f; "
              "mean batch %.2f, dedup %.3f, %zu queries on %zu structures\n",
              traced.due_ns.size(), mean_us, Mean(traced.late_us),
              sm.latency.mean_ns / 1000.0, unattributed_us, sm.MeanBatchSize(),
              sm.DedupFactor(), all.size(), structures.size());
  return report;
}

}  // namespace perfbench
