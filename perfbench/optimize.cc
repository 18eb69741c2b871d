// optimize_dp: one thread repeats DPsize sweeps (left-deep, peak
// intermediate objective) over the 33 JOB templates at data scale 0.05 on
// the bound model, then executes the plans of the <= 8-atom scoring set
// through CountByHashJoin (untimed).
//
// Sub-query probes spread over thousands of compiled structures and
// about half of the evaluations re-solve the LP instead of reusing the
// witness, so this is the LP-dominated counterpart of templates_scalar.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "bounds/bound_engine.h"
#include "common.h"
#include "exec/hash_join.h"
#include "optimizer/join_order.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.05;
constexpr int kScoringMaxAtoms = 8;
// At least this many sweeps (33 plans each) per measurement, spread over
// its set-ups. Each template's plan time is its fastest over the sweeps:
// the host is shared, other tenants' load slows planning by up to half in
// spells of seconds, and interference only adds time. With at least four
// sweeps, the p90 over templates, smoothed over the templates within +-5%
// of its rank, rests on at least ten timed plans.
constexpr int kMinSweeps = 4;
// Traced runs replay LP evaluation on bench-owned compiled bounds for one
// structure in kEvalSample: a bound for every probed structure would
// double the workload's memory (several GB).
constexpr size_t kEvalSample = 8;
// Set-ups timed per untraced run; setup_s is their median (with two, the
// mean). Each set-up takes 10-20 s, most of a run, so two keep the
// benchmark's runs within its time budget.
constexpr int kSetups = 2;

lpb::JoinOrderOptions DpOptions() {
  lpb::JoinOrderOptions o;
  o.left_deep = true;
  o.objective = lpb::CostObjective::kPeakIntermediate;
  return o;
}

// The bench-owned CardinalityModel: forwards each DP level's batch to the
// advisor. In a traced sweep it records the model and advisor spans, then
// replays the batch layer by layer -- statistics assembly, and
// EvaluateBatch per structure on bench-owned compiled bounds -- under a
// replay span, checking the replayed bounds against the advisor's. Each
// sampled structure sees every one of its probes in order, so its cached
// basis evolves as the advisor's does.
class BenchModel : public lpb::CardinalityModel {
 public:
  // kForward: advisor only. kWarm: replay untraced, compiling and warming
  // the bench-owned bounds and counting distinct probes and structures.
  // kTrace: replay with spans.
  enum class Mode { kForward, kWarm, kTrace };

  BenchModel(lpb::CardinalityAdvisor& advisor, Tracer& tracer, Report& report)
      : advisor_(advisor),
        tracer_(tracer),
        report_(report),
        n_model_(tracer.Intern("optimizer.model")),
        n_batch_(tracer.Intern("estimator.estimate_batch")),
        n_replay_(tracer.Intern("replay")),
        n_assemble_(tracer.Intern("estimator.assemble")),
        n_evaluate_(tracer.Intern("bounds.evaluate")),
        n_compile_(tracer.Intern("bounds.compile")) {}

  void set_mode(Mode mode) { mode_ = mode; }
  void set_plan(uint32_t span, uint64_t request) {
    plan_span_ = span;
    request_ = request;
  }
  size_t structures() const { return structures_.size(); }
  size_t distinct_probes() const { return distinct_probes_.size(); }
  uint64_t probes() const { return probes_; }
  uint64_t sampled_probes() const { return sampled_probes_; }
  void ResetProbeCounts() { probes_ = sampled_probes_ = 0; }

  std::vector<double> EstimateLog2Batch(
      const std::vector<lpb::Query>& probes) override {
    if (mode_ == Mode::kForward) {
      std::vector<double> out = advisor_.EstimateLog2Batch(probes);
      for (double v : out) report_.Check(!std::isnan(v));
      return out;
    }
    if (mode_ == Mode::kWarm) {
      for (const lpb::Query& q : probes) distinct_probes_.insert(q.ToString());
    }
    std::vector<double> out;
    {
      ScopedSpan model(tracer_, n_model_, plan_span_, request_);
      ScopedSpan batch(tracer_, n_batch_, model.id(), request_);
      out = advisor_.EstimateLog2Batch(probes);
    }
    probes_ += probes.size();
    ScopedSpan replay(tracer_, n_replay_, plan_span_, request_);
    std::vector<std::vector<lpb::ConcreteStatistic>> stats;
    {
      ScopedSpan span(tracer_, n_assemble_, replay.id(), request_);
      stats = advisor_.AssembleStatisticsBatch(probes);
    }
    // Group by structure as the advisor's batch path does; the order of
    // probes inside a group is kept, so each compiled bound sees the
    // same value sequence as the advisor's.
    std::map<std::string, std::vector<size_t>> groups;
    std::map<std::string, lpb::CompiledBound*> bound_of;
    for (size_t i = 0; i < probes.size(); ++i) {
      const lpb::BoundStructure s =
          lpb::StructureOf(probes[i].num_vars(), stats[i]);
      const std::string key = lpb::StructureKey(s);
      if (mode_ == Mode::kWarm) structures_.insert(key);
      lpb::CompiledBound* bound = Compiled(s);
      if (bound == nullptr) continue;
      groups[key].push_back(i);
      bound_of[key] = bound;
      ++sampled_probes_;
    }
    for (const auto& [key, members] : groups) {
      std::vector<std::vector<double>> values;
      for (size_t i : members) values.push_back(lpb::ValuesOf(stats[i]));
      std::vector<lpb::BoundResult> results;
      {
        ScopedSpan span(tracer_, n_evaluate_, replay.id(), request_);
        results = bound_of[key]->EvaluateBatch(values);
      }
      for (size_t j = 0; j < members.size(); ++j) {
        report_.Check(
            MatchesReference(results[j].log2_bound, out[members[j]]));
      }
    }
    return out;
  }

 private:
  // The bench-owned bound of a sampled structure; nullptr otherwise.
  lpb::CompiledBound* Compiled(const lpb::BoundStructure& structure) {
    const std::string key = lpb::StructureKey(structure);
    if (std::hash<std::string>{}(key) % kEvalSample != 0) return nullptr;
    std::unique_ptr<lpb::CompiledBound>& slot = compiled_[key];
    if (!slot) {
      // Recorded even while the tracer is off: compiles happen in the
      // untraced warm sweep.
      const int64_t start = NowNs();
      slot = lpb::FindBoundEngine("auto")->Compile(structure);
      tracer_.Add(n_compile_, kNoSpan, 0, start, NowNs());
    }
    return slot.get();
  }

  lpb::CardinalityAdvisor& advisor_;
  Tracer& tracer_;
  Report& report_;
  const uint32_t n_model_, n_batch_, n_replay_, n_assemble_, n_evaluate_,
      n_compile_;
  Mode mode_ = Mode::kForward;
  uint32_t plan_span_ = kNoSpan;
  uint64_t request_ = 0;
  uint64_t probes_ = 0;
  uint64_t sampled_probes_ = 0;
  std::set<std::string> structures_;
  std::map<std::string, std::unique_ptr<lpb::CompiledBound>> compiled_;
  std::set<std::string> distinct_probes_;
};

struct SweepResult {
  std::vector<double> plan_us;
  std::vector<double> best_us;  // per template: its fastest plan
  double seconds = 0.0;
  int sweeps = 0;
  uint64_t probes = 0;       // per sweep
  uint64_t batch_calls = 0;  // per sweep
  std::vector<std::vector<int>> orders;  // last sweep's plan per template
};

struct State {
  std::unique_ptr<lpb::JobWorkload> wl;
  std::unique_ptr<lpb::CardinalityAdvisor> advisor;
  std::vector<lpb::Query> templates;
};

// The set-up a user pays before planning: data generation and one DPsize
// sweep over the templates, which compiles every probed structure and
// dominates it.
State SetUp(const Options& options, Tracer& tracer, Report& report) {
  State s;
  s.wl = std::make_unique<lpb::JobWorkload>(
      lpb::GenerateJobWorkload(JobOptions(kScale)));
  s.templates = Templates(*s.wl, options.smoke ? 8 : 0);
  s.advisor = std::make_unique<lpb::CardinalityAdvisor>(s.wl->catalog);
  BenchModel model(*s.advisor, tracer, report);
  for (const lpb::Query& q : s.templates) {
    lpb::JoinOrderOptimizer(q, model, DpOptions()).Optimize();
  }
  return s;
}

}  // namespace

Report RunOptimizeDp(const Options& options, Tracer& tracer) {
  Report report;
  // The set-up is timed kSetups times and its median reported; each
  // set-up is released before the next is timed, so peak memory holds one.
  // An untimed run measures a share of its sweeps after each set-up, so
  // the measurement spans the whole run rather than its last seconds.
  const int setups = options.smoke || options.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  State state;
  std::unique_ptr<BenchModel> bench_model;  // on state's advisor
  const auto set_up = [&] {
    bench_model.reset();
    state = State{};
    const Clock::time_point t0 = Clock::now();
    state = SetUp(options, tracer, report);
    setup_s.push_back(SecondsSince(t0));
    bench_model =
        std::make_unique<BenchModel>(*state.advisor, tracer, report);
  };
  set_up();
  // The same for every set-up: the data and templates do not change.
  const std::vector<lpb::Query>& templates = state.templates;
  const lpb::JoinOrderOptions dp_options = DpOptions();

  std::vector<double> reference;
  for (const lpb::Query& q : templates) {
    reference.push_back(ColdReference(*state.advisor, q));
  }
  if (options.wrong_reference) reference[0] += 1.0;

  const uint32_t n_plan = tracer.Intern("optimizer.plan");
  uint64_t plan_id = 0;
  // Adds sweeps to `r` until at least `min_sweeps` ran and `seconds` passed.
  const auto sweeps = [&](SweepResult& r, double seconds, int min_sweeps,
                          bool traced) {
    BenchModel& model = *bench_model;
    r.orders.resize(templates.size());
    r.best_us.resize(templates.size(), HUGE_VAL);
    const Clock::time_point start = Clock::now();
    for (int n = 0; n < min_sweeps || SecondsSince(start) < seconds; ++n) {
      for (size_t t = 0; t < templates.size(); ++t, ++plan_id) {
        lpb::JoinOrderOptimizer dp(templates[t], model, dp_options);
        const Clock::time_point t0 = Clock::now();
        const lpb::JoinPlan* plan = nullptr;
        {
          ScopedSpan span(tracer, n_plan, kNoSpan, plan_id);
          if (traced) model.set_plan(span.id(), plan_id);
          plan = &dp.Optimize();
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        r.plan_us.push_back(us);
        r.best_us[t] = std::min(r.best_us[t], us);
        std::vector<int> order = plan->AtomOrder();
        std::vector<int> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        bool permutation = static_cast<int>(sorted.size()) ==
                           templates[t].num_atoms();
        for (size_t i = 0; permutation && i < sorted.size(); ++i) {
          permutation = sorted[i] == static_cast<int>(i);
        }
        report.Check(permutation &&
                     MatchesReference(plan->log2_rows(), reference[t]));
        if (r.sweeps == 0) {
          r.probes += dp.stats().probes;
          r.batch_calls += dp.stats().batch_calls;
        }
        r.orders[t] = std::move(order);
      }
      ++r.sweeps;
    }
    r.seconds += SecondsSince(start);
  };

  // Untimed scoring: execute the <= 8-atom templates' plans, check that
  // every bound is sound (bound >= true output), and measure the plans'
  // peak materialized intermediates.
  const auto score = [&](const SweepResult& r) {
    double peak_rows = 0.0;
    std::vector<double> gaps;
    const Clock::time_point start = Clock::now();
    for (size_t t = 0; t < templates.size(); ++t) {
      if (templates[t].num_atoms() > kScoringMaxAtoms) continue;
      const lpb::HashJoinStats run =
          lpb::CountByHashJoin(templates[t], state.wl->catalog, r.orders[t]);
      if (!report.Check(run.ok)) continue;
      const double out = static_cast<double>(run.output_count);
      report.Check(out <= std::exp2(reference[t]) * (1.0 + 1e-9));
      if (out > 0) gaps.push_back(reference[t] - std::log2(out));
      uint64_t peak = 0;
      for (uint64_t v : run.intermediate_sizes) peak = std::max(peak, v);
      peak_rows += static_cast<double>(peak);
    }
    report.Set("exec.score_ms", SecondsSince(start) * 1000.0);
    report.Set("exec.peak_rows", peak_rows);
    report.Set("exec.bound_gap_log2", Median(gaps));
    std::printf("# optimize_dp scoring set: %zu plans executed, peak rows "
                "sum %.0f, median log2(bound/output) %.4f\n",
                gaps.size(), peak_rows, Median(gaps));
  };

  const double seconds = options.smoke ? 0.5 : options.seconds;
  if (!options.trace) {
    SweepResult r;
    const int min_sweeps = options.smoke ? 1 : kMinSweeps;
    for (int i = 0; i < setups; ++i) {
      if (i > 0) set_up();
      sweeps(r, seconds / setups, (min_sweeps + setups - 1) / setups, false);
    }
    const double plans = static_cast<double>(r.plan_us.size());
    report.Set("setup_s", Median(setup_s));
    // Plan times cluster by template, so plain order statistics jump
    // between clusters from run to run; the smoothed ones do not.
    report.Set("p50_us", SmoothedQuantile(r.best_us, 0.50));
    report.Set("tail_us", SmoothedQuantile(r.best_us, 0.90));
    // The rate of a sweep made of every template's fastest plan.
    const double best_sweep_us =
        std::accumulate(r.best_us.begin(), r.best_us.end(), 0.0);
    report.Set("throughput_per_s",
               static_cast<double>(templates.size()) * 1e6 / best_sweep_us);
    std::string setups_s;
    for (double t : setup_s) setups_s += " " + std::to_string(t);
    std::printf("# optimize_dp: set-ups (s):%s; %d sweeps, %.0f plans in "
                "%.2f s (%.2f plans/s); p50_us and tail_us are p50 and p90, "
                "smoothed over +-5%% of ranks, of the %zu templates' fastest "
                "plans (over all plans: p50 %.0f us, p90 %.0f us), "
                "throughput_per_s the rate of a sweep of fastest plans; "
                "%llu probes per sweep\n",
                setups_s.c_str(), r.sweeps, plans, r.seconds,
                plans / r.seconds, r.best_us.size(),
                SmoothedQuantile(r.plan_us, 0.50),
                SmoothedQuantile(r.plan_us, 0.90),
                static_cast<unsigned long long>(r.probes));
    score(r);
    return report;
  }

  // Traced run: untraced sweeps for counters and the tracing baseline, a
  // compile sweep for the bench-owned bounds, then traced sweeps.
  lpb::CardinalityAdvisor& advisor = *state.advisor;
  BenchModel& model = *bench_model;
  const lpb::AdvisorMetrics before = advisor.metrics();
  const lpb::LpKernelCounters calls_before = lpb::g_lp_kernel_counters;
  tracer.set_enabled(false);
  SweepResult base;
  sweeps(base, seconds / 2, 1, false);
  const lpb::LpKernelCounters calls_after = lpb::g_lp_kernel_counters;
  const lpb::AdvisorMetrics after = advisor.metrics();
  const double base_plans = static_cast<double>(base.plan_us.size());
  SetAdvisorLayerMetrics(report, before, after, advisor.CompiledCacheSize());
  report.Set("optimizer.probes", static_cast<double>(base.probes));
  report.Set("optimizer.batch_calls", static_cast<double>(base.batch_calls));

  // One untraced replay sweep compiles the sampled bench-owned bounds and
  // brings their cached bases to the advisor's state; its compile spans
  // are the only ones kept from it.
  tracer.set_enabled(false);
  model.set_mode(BenchModel::Mode::kWarm);
  for (const lpb::Query& q : templates) {
    lpb::JoinOrderOptimizer(q, model, dp_options).Optimize();
  }
  model.ResetProbeCounts();
  tracer.set_enabled(true);
  report.Set("bounds.queries_per_structure",
             static_cast<double>(model.distinct_probes()) /
                 static_cast<double>(std::max<size_t>(1, model.structures())));

  model.set_mode(BenchModel::Mode::kTrace);
  lpb::SetLpKernelCycleTiming(true);
  const lpb::LpKernelCounters cycles_before = lpb::g_lp_kernel_counters;
  SweepResult traced;
  sweeps(traced, seconds / 2, 1, true);
  const lpb::LpKernelCounters cycles_after = lpb::g_lp_kernel_counters;
  lpb::SetLpKernelCycleTiming(false);
  model.set_mode(BenchModel::Mode::kForward);
  SetKernelMetrics(report, calls_before, calls_after, base_plans,
                   cycles_before, cycles_after);

  const auto totals = tracer.Aggregate();
  const auto total_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns / 1000.0;
  };
  const auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double plans = std::max(1.0, count("optimizer.plan"));
  const double probes = std::max<double>(1.0, model.probes());
  const double model_us = total_us("optimizer.model");
  const double assemble_us = total_us("estimator.assemble");
  const double evaluate_us = total_us("bounds.evaluate");
  report.Set("optimizer.self_ms",
             totals.count("optimizer.plan")
                 ? totals.at("optimizer.plan").self_ns / 1e6 / plans
                 : 0.0);
  report.Set("optimizer.model_ms", model_us / 1000.0 / plans);
  report.Set("estimator.estimate_batch_us",
             total_us("estimator.estimate_batch") /
                 std::max(1.0, count("estimator.estimate_batch")));
  report.Set("estimator.assemble_us", assemble_us / probes);
  report.Set("bounds.evaluate_us",
             evaluate_us / std::max<double>(1.0, model.sampled_probes()));
  report.Set("bounds.compile_ms", total_us("bounds.compile") / 1000.0 /
                                      std::max(1.0, count("bounds.compile")));
  // Evaluation time of all probes, scaled up from the sampled structures.
  const double all_evaluate_us =
      evaluate_us * probes / std::max<double>(1.0, model.sampled_probes());
  report.Set("trace.unattributed_us",
             (model_us - assemble_us - all_evaluate_us) / plans);
  report.Set("trace.overhead_us",
             (total_us("optimizer.plan") - total_us("replay")) / plans -
                 Mean(base.plan_us));
  report.Set("trace.spans", static_cast<double>(tracer.size()));
  std::printf("# optimize_dp traced: %.0f plans, %.0f probes; per plan "
              "%.3f ms = optimizer self %.3f + model %.3f (+ replay)\n",
              plans, probes, total_us("optimizer.plan") / 1000.0 / plans,
              totals.count("optimizer.plan")
                  ? totals.at("optimizer.plan").self_ns / 1e6 / plans
                  : 0.0,
              model_us / 1000.0 / plans);
  score(traced);
  return report;
}

}  // namespace perfbench
