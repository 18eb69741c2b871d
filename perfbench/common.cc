#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bounds/normal_engine.h"
#include "lp/kernels.h"
#include "relation/degree_sequence.h"

namespace perfbench {

const std::vector<MetricSpec>& MetricTable() {
  static const std::vector<MetricSpec> table = [] {
    std::vector<MetricSpec> t = {
        {"setup_s", "s", true},
        {"p50_us", "us", true},
        {"tail_us", "us", true},
        {"throughput_per_s", "1/s", true},
        {"peak_rss_mb", "MB", true},
        {"estimator.assemble_us", "us", false},
        {"estimator.estimate_batch_us", "us", false},
        {"estimator.norm_hit_rate", "ratio", false},
        {"estimator.norm_misses", "count", false},
        {"estimator.compiled_hit_rate", "ratio", false},
        {"estimator.witness_rate", "ratio", false},
        {"bounds.evaluate_us", "us", false},
        {"bounds.compile_ms", "ms", false},
        {"bounds.structures", "count", false},
        {"bounds.queries_per_structure", "ratio", false},
        {"lp.pivots_per_estimate", "count", false},
        {"lp.refactorizations", "count/1k_est", false},
        {"lp.warm_resolves", "count/1k_est", false},
        {"lp.cold_solves", "count/1k_est", false},
    };
    for (int k = 0; k < lpb::kNumLpKernels; ++k) {
      const std::string name =
          lpb::LpKernelName(static_cast<lpb::LpKernelId>(k));
      t.push_back({"lp.kernel." + name + ".calls", "count/unit", false});
      t.push_back({"lp.kernel." + name + ".cycles_per_call", "cycles", false});
    }
    const std::vector<MetricSpec> rest = {
        {"relation.recompute_ms", "ms", false},
        {"relation.invalidations", "count", false},
        {"optimizer.self_ms", "ms", false},
        {"optimizer.model_ms", "ms", false},
        {"optimizer.probes", "count", false},
        {"optimizer.batch_calls", "count", false},
        {"serve.service_p50_us", "us", false},
        {"serve.service_p99_us", "us", false},
        {"serve.generator_late_us", "us", false},
        {"serve.mean_batch", "count", false},
        {"serve.dedup_factor", "ratio", false},
        {"serve.evals_per_s", "1/s", false},
        {"serve.max_queue_depth", "count", false},
        {"exec.score_ms", "ms", false},
        {"exec.peak_rows", "count", false},
        {"exec.bound_gap_log2", "log2", false},
        {"trace.unattributed_us", "us", false},
        {"trace.overhead_us", "us", false},
        {"trace.spans", "count", false},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

bool MatchesReference(double value, double reference) {
  return std::isfinite(value) && std::fabs(value - reference) <= 1e-6;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double SmoothedQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t lo =
      static_cast<size_t>(std::max(0.0, std::floor((q - 0.05) * n)));
  const size_t hi = std::min(
      v.size(), static_cast<size_t>(std::ceil((q + 0.05) * n)));
  return std::accumulate(v.begin() + lo, v.begin() + std::max(hi, lo + 1),
                         0.0) /
         static_cast<double>(std::max(hi, lo + 1) - lo);
}

double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Median(per_window);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

lpb::JobWorkloadOptions JobOptions(double scale) {
  lpb::JobWorkloadOptions o;
  o.scale = scale;
  return o;
}

std::vector<lpb::Query> Templates(const lpb::JobWorkload& wl, int limit) {
  std::vector<lpb::Query> out = wl.queries;
  if (limit > 0 && static_cast<size_t>(limit) < out.size()) out.resize(limit);
  return out;
}

double ColdReference(lpb::CardinalityAdvisor& advisor, const lpb::Query& q) {
  const lpb::CardinalityAdvisor::Explanation e = advisor.Explain(q);
  return lpb::LpNormBound(q.num_vars(), e.stats).log2_bound;
}

NormKeys CollectNormKeys(lpb::CardinalityAdvisor& advisor,
                         const std::vector<lpb::Query>& queries) {
  NormKeys keys;
  for (const lpb::Query& q : queries) {
    for (const lpb::ConcreteStatistic& s : advisor.Explain(q).stats) {
      if (s.guard_atom < 0) continue;
      const lpb::Atom& atom = q.atom(s.guard_atom);
      NormKey key;
      for (int j = 0; j < static_cast<int>(atom.vars.size()); ++j) {
        const lpb::VarSet bit = lpb::VarBit(atom.vars[j]);
        if (s.sigma.u & bit) {
          key.u_cols.push_back(j);
        } else if (s.sigma.v & bit) {
          key.v_cols.push_back(j);
        }
      }
      keys[atom.relation][key][s.p] = s.log_b;
    }
  }
  return keys;
}

int RecomputeRelation(const lpb::Catalog& catalog, const NormKeys& keys,
                      const std::string& relation,
                      const std::vector<double>& norms) {
  const auto it = keys.find(relation);
  if (it == keys.end()) return 0;
  const lpb::Relation& rel = catalog.Get(relation);
  int mismatches = 0;
  for (const auto& [key, reported] : it->second) {
    const lpb::DegreeSequence seq =
        lpb::ComputeDegreeSequence(rel, key.u_cols, key.v_cols);
    for (double p : norms) {
      const double log_norm = seq.Log2NormP(p);
      const auto r = reported.find(p);
      if (std::isnan(log_norm) ||
          (r != reported.end() && std::fabs(r->second - log_norm) > 1e-9)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

InvalidationOrder::InvalidationOrder(std::vector<std::string> relations,
                                     uint64_t seed)
    : relations_(std::move(relations)), rng_(seed), next_(relations_.size()) {}

const std::string& InvalidationOrder::Next() {
  if (next_ == relations_.size()) {
    for (size_t i = relations_.size(); i > 1; --i) {
      std::swap(relations_[i - 1], relations_[rng_.Uniform(i)]);
    }
    next_ = 0;
  }
  return relations_[next_++];
}

void SetAdvisorLayerMetrics(Report& report, const lpb::AdvisorMetrics& before,
                            const lpb::AdvisorMetrics& after,
                            size_t compiled_structures) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double estimates = delta(before.estimates, after.estimates);
  const double norm_hits = delta(before.norm_hits, after.norm_hits);
  const double norm_misses = delta(before.norm_misses, after.norm_misses);
  const double c_hits = delta(before.compiled_hits, after.compiled_hits);
  const double c_misses = delta(before.compiled_misses, after.compiled_misses);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report.Set("estimator.norm_hit_rate",
             ratio(norm_hits, norm_hits + norm_misses));
  report.Set("estimator.norm_misses", norm_misses);
  report.Set("estimator.compiled_hit_rate", ratio(c_hits, c_hits + c_misses));
  report.Set("estimator.witness_rate",
             ratio(delta(before.witness_hits, after.witness_hits), estimates));
  report.Set("bounds.structures", static_cast<double>(compiled_structures));
  report.Set("lp.pivots_per_estimate",
             ratio(delta(before.lp_pivots, after.lp_pivots), estimates));
  const double per_1k = estimates > 0 ? 1000.0 / estimates : 0.0;
  report.Set("lp.refactorizations",
             per_1k *
                 delta(before.lp_refactorizations, after.lp_refactorizations));
  report.Set("lp.warm_resolves",
             per_1k * delta(before.warm_resolves, after.warm_resolves));
  report.Set("lp.cold_solves",
             per_1k * delta(before.cold_solves, after.cold_solves));
}

void SetKernelMetrics(Report& report, const lpb::LpKernelCounters& calls_before,
                      const lpb::LpKernelCounters& calls_after, double units,
                      const lpb::LpKernelCounters& cycles_before,
                      const lpb::LpKernelCounters& cycles_after) {
  for (int k = 0; k < lpb::kNumLpKernels; ++k) {
    const std::string prefix =
        std::string("lp.kernel.") +
        lpb::LpKernelName(static_cast<lpb::LpKernelId>(k));
    const double calls =
        static_cast<double>(calls_after.calls[k] - calls_before.calls[k]);
    const double timed_calls =
        static_cast<double>(cycles_after.calls[k] - cycles_before.calls[k]);
    const double cycles =
        static_cast<double>(cycles_after.cycles[k] - cycles_before.cycles[k]);
    report.Set(prefix + ".calls", units > 0 ? calls / units : 0.0);
    report.Set(prefix + ".cycles_per_call",
               timed_calls > 0 ? cycles / timed_calls : 0.0);
  }
}

// ---------------------------------------------------------------------------

uint32_t Tracer::Intern(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Begin(uint32_t name, uint32_t parent, uint64_t request) {
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void Tracer::End(uint32_t span) { spans_[span].end_ns = NowNs(); }

uint32_t Tracer::Add(uint32_t name, uint32_t parent, uint64_t request,
                     int64_t start_ns, int64_t end_ns) {
  spans_.push_back({name, parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[names_[s.name]];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    ++t.count;
  }
  return out;
}

bool Tracer::Write(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
