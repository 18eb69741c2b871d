// templates_scalar: one client thread, closed loop, scalar EstimateLog2 on
// a Zipf(0.8) mix of the 33 JOB templates at data scale 0.5, with one
// seeded-random relation invalidated every kInvalidateEvery estimates.
//
// Statistics assembly does nearly all of the work of a warm estimate here
// and the LP is a witness dot product, so assembly changes show on this
// workload and LP changes barely do.
#include <cstdio>
#include <memory>
#include <span>

#include "bounds/bound_engine.h"
#include "common.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.5;
constexpr uint64_t kInvalidateEvery = 4096;
constexpr int kSetups = 9;

// The host is shared. Other tenants slow every estimate by up to 60% in
// spells that last from a fraction of a second to minutes, so a median
// over a run moves with the host rather than the code: between quiet and
// busy spells the median window p99 moved by 70%. Interference only ever
// adds time, and even a busy spell has quiet moments of some tens of
// milliseconds. The run is therefore cut into kWindow windows and each
// figure is taken from the fastest window: p50_us and tail_us are the
// lowest window median and p99, throughput_per_s the highest window rate.
constexpr auto kWindow = std::chrono::milliseconds(50);

struct State {
  std::unique_ptr<lpb::JobWorkload> wl;
  std::unique_ptr<lpb::CardinalityAdvisor> advisor;
};

// The set-up a user pays before serving: data generation, statistics
// warm-up and compile of every template.
State SetUp() {
  State s;
  s.wl = std::make_unique<lpb::JobWorkload>(
      lpb::GenerateJobWorkload(JobOptions(kScale)));
  s.advisor = std::make_unique<lpb::CardinalityAdvisor>(s.wl->catalog);
  for (const lpb::Query& q : s.wl->queries) s.advisor->EstimateLog2(q);
  return s;
}

// Latency samples of the current window: at most kWindowSamples are kept
// (reservoir sampling) in one buffer allocated up front, so the
// benchmark's own memory does not vary with the estimate rate and
// peak_rss_mb measures the advisor. A window keeps only its summary.
constexpr size_t kWindowSamples = 1 << 14;

struct Window {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double rate = 0.0;  // estimates/s
};

struct PhaseResult {
  std::vector<Window> windows;
  uint64_t estimates = 0;
  double total_us = 0.0;
  double seconds = 0.0;
  uint64_t invalidations = 0;

  // The q-quantile over windows of one field of each window's summary.
  double OverWindows(double Window::*field, double q) const {
    std::vector<double> v;
    for (const Window& w : windows) v.push_back(w.*field);
    return Quantile(v, q);
  }
};

}  // namespace

Report RunTemplatesScalar(const Options& options, Tracer& tracer) {
  Report report;
  const int setups = options.smoke || options.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  State state;
  for (int i = 0; i < setups; ++i) {
    state = State{};  // release the previous set-up before timing the next
    const Clock::time_point t0 = Clock::now();
    state = SetUp();
    setup_s.push_back(SecondsSince(t0));
  }
  lpb::CardinalityAdvisor& advisor = *state.advisor;
  const std::vector<lpb::Query>& templates = state.wl->queries;
  InvalidationOrder invalidation(state.wl->catalog.Names(), options.seed);

  std::vector<double> reference;
  for (const lpb::Query& q : templates) {
    reference.push_back(ColdReference(advisor, q));
  }
  if (options.wrong_reference) reference[0] += 1.0;

  // Request sequence from the seed.
  lpb::Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  const lpb::ZipfSampler zipf(templates.size(), 0.8);
  std::vector<uint32_t> sequence(1u << 20);
  for (uint32_t& t : sequence) t = static_cast<uint32_t>(zipf.Sample(rng));
  const uint64_t mask = sequence.size() - 1;

  const NormKeys keys = CollectNormKeys(advisor, templates);
  const std::vector<double> norms = lpb::AdvisorOptions{}.norms;

  // Bench-owned compiled bounds per template (traced runs only), fed the
  // values the advisor assembles so LP evaluation is timed on its own.
  std::vector<lpb::CompiledBound*> compiled;  // per template
  const uint32_t n_request = tracer.Intern("request");
  const uint32_t n_estimate = tracer.Intern("estimator.estimate_log2");
  const uint32_t n_assemble = tracer.Intern("estimator.assemble");
  const uint32_t n_evaluate = tracer.Intern("bounds.evaluate");
  const uint32_t n_compile = tracer.Intern("bounds.compile");
  const uint32_t n_recompute = tracer.Intern("relation.recompute");

  uint64_t next = 0;  // position in the request sequence, across phases
  lpb::Rng reservoir(options.seed + 2);
  std::vector<double> samples(kWindowSamples);  // the current window's
  const auto run_phase = [&](double seconds, bool traced) {
    PhaseResult r;
    uint64_t seen = 0;  // estimates in the current window
    const Clock::time_point start = Clock::now();
    Clock::time_point window_start = start;
    // Summarizes the current window. The next one starts after the
    // summary is computed, so its sorting is not charged to any window.
    const auto close_window = [&](Clock::time_point now) {
      Window w;
      w.rate = static_cast<double>(seen) /
               std::chrono::duration<double>(now - window_start).count();
      const std::vector<double> kept(
          samples.begin(),
          samples.begin() + std::min<uint64_t>(seen, kWindowSamples));
      w.p50_us = Quantile(kept, 0.50);
      w.p99_us = Quantile(kept, 0.99);
      r.windows.push_back(w);
      seen = 0;
      window_start = Clock::now();
    };
    for (uint64_t i = 0;; ++i, ++next) {
      if (i > 0 && next % kInvalidateEvery == 0) {
        const std::string& rel = invalidation.Next();
        advisor.Invalidate(rel);
        ++r.invalidations;
        if (traced) {
          ScopedSpan span(tracer, n_recompute, kNoSpan, next);
          report.Check(RecomputeRelation(state.wl->catalog, keys, rel,
                                         norms) == 0);
        }
      }
      const uint32_t t = sequence[next & mask];
      const lpb::Query& q = templates[t];
      if (!traced) {
        const Clock::time_point t0 = Clock::now();
        const double v = advisor.EstimateLog2(q);
        const Clock::time_point t1 = Clock::now();
        report.Check(MatchesReference(v, reference[t]));
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (seen < kWindowSamples) {
          samples[seen] = us;
        } else if (const uint64_t j = reservoir.Uniform(seen + 1);
                   j < kWindowSamples) {
          samples[j] = us;
        }
        r.total_us += us;
      } else {
        ScopedSpan request(tracer, n_request, kNoSpan, next);
        double v = 0.0;
        {
          ScopedSpan span(tracer, n_estimate, request.id(), next);
          v = advisor.EstimateLog2(q);
        }
        report.Check(MatchesReference(v, reference[t]));
        std::vector<std::vector<lpb::ConcreteStatistic>> stats;
        {
          ScopedSpan span(tracer, n_assemble, request.id(), next);
          stats = advisor.AssembleStatisticsBatch(std::span(&q, 1));
        }
        const std::vector<double> values = lpb::ValuesOf(stats[0]);
        double replayed = 0.0;
        {
          ScopedSpan span(tracer, n_evaluate, request.id(), next);
          replayed = compiled[t]->Evaluate(values, false).log2_bound;
        }
        report.Check(MatchesReference(replayed, reference[t]));
      }
      ++r.estimates;
      ++seen;
      if ((i & 63) == 0) {
        const Clock::time_point now = Clock::now();
        if (now - start >= std::chrono::duration<double>(seconds)) {
          // The partial window at the end is dropped, unless it is the
          // only one.
          if (r.windows.empty()) close_window(now);
          break;
        }
        if (now - window_start >= kWindow) close_window(now);
      }
    }
    r.seconds = SecondsSince(start);
    return r;
  };

  const double seconds = options.smoke ? 0.5 : options.seconds;
  if (!options.trace) {
    PhaseResult r = run_phase(seconds, false);
    const double n = static_cast<double>(r.estimates);
    report.Set("setup_s", Median(setup_s));
    report.Set("p50_us", r.OverWindows(&Window::p50_us, 0.0));
    report.Set("tail_us", r.OverWindows(&Window::p99_us, 0.0));
    report.Set("throughput_per_s", r.OverWindows(&Window::rate, 1.0));
    std::printf("# templates_scalar: %.0f estimates in %.2f s, "
                "%llu invalidations, %zu windows of %lld ms; p50_us, "
                "tail_us and throughput_per_s are the fastest window's "
                "(medians over windows: p50 %.3f us, p99 %.3f us, "
                "%.0f estimates/s)\n",
                n, r.seconds,
                static_cast<unsigned long long>(r.invalidations),
                r.windows.size(), static_cast<long long>(kWindow.count()),
                r.OverWindows(&Window::p50_us, 0.5),
                r.OverWindows(&Window::p99_us, 0.5),
                r.OverWindows(&Window::rate, 0.5));
    return report;
  }

  // Traced run: an untraced half for the counters and the tracing
  // baseline, then a traced half for the spans.
  const lpb::AdvisorMetrics before = advisor.metrics();
  const lpb::LpKernelCounters calls_before = lpb::g_lp_kernel_counters;
  PhaseResult base = run_phase(seconds / 2, false);
  const lpb::LpKernelCounters calls_after = lpb::g_lp_kernel_counters;
  const lpb::AdvisorMetrics after = advisor.metrics();
  const double base_n = static_cast<double>(base.estimates);
  SetAdvisorLayerMetrics(report, before, after, advisor.CompiledCacheSize());
  report.Set("relation.invalidations", static_cast<double>(base.invalidations));

  // One compiled bound per structure, shared by the templates that have
  // it, as in the advisor's compiled-bound cache.
  const lpb::BoundEngine* engine = lpb::FindBoundEngine("auto");
  std::map<std::string, size_t> structure_slot;
  std::vector<std::unique_ptr<lpb::CompiledBound>> owned;
  for (const lpb::Query& q : templates) {
    const lpb::BoundStructure structure = lpb::StructureOf(
        q.num_vars(), advisor.AssembleStatisticsBatch(std::span(&q, 1))[0]);
    const auto [it, inserted] =
        structure_slot.emplace(lpb::StructureKey(structure), owned.size());
    if (inserted) {
      ScopedSpan span(tracer, n_compile, kNoSpan, 0);
      owned.push_back(engine->Compile(structure));
    }
    compiled.push_back(owned[it->second].get());
  }
  report.Set("bounds.queries_per_structure",
             static_cast<double>(templates.size()) /
                 static_cast<double>(owned.size()));

  lpb::SetLpKernelCycleTiming(true);
  const lpb::LpKernelCounters cycles_before = lpb::g_lp_kernel_counters;
  run_phase(seconds / 2, true);
  const lpb::LpKernelCounters cycles_after = lpb::g_lp_kernel_counters;
  lpb::SetLpKernelCycleTiming(false);
  SetKernelMetrics(report, calls_before, calls_after, base_n, cycles_before,
                   cycles_after);

  const auto totals = tracer.Aggregate();
  const auto per = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ns / 1000.0 /
                     static_cast<double>(it->second.count);
  };
  const double estimate_us = per("estimator.estimate_log2");
  const double assemble_us = per("estimator.assemble");
  const double evaluate_us = per("bounds.evaluate");
  report.Set("estimator.assemble_us", assemble_us);
  report.Set("bounds.evaluate_us", evaluate_us);
  report.Set("bounds.compile_ms", per("bounds.compile") / 1000.0);
  report.Set("relation.recompute_ms", per("relation.recompute") / 1000.0);
  report.Set("trace.unattributed_us", estimate_us - assemble_us - evaluate_us);
  report.Set("trace.overhead_us", estimate_us - base.total_us / base_n);
  report.Set("trace.spans", static_cast<double>(tracer.size()));
  std::printf("# templates_scalar traced: %zu spans; estimate %.3f us = "
              "assemble %.3f + evaluate %.3f + unattributed %.3f\n",
              tracer.size(), estimate_us, assemble_us, evaluate_us,
              estimate_us - assemble_us - evaluate_us);
  return report;
}

}  // namespace perfbench
