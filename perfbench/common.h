// Shared pieces of the repository benchmark: command-line options, the
// metric table (mirrors BENCHMARK.json), the per-run report, span tracing,
// and small measurement helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "lp/kernels.h"
#include "query/query.h"
#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Short run of every phase (seconds capped, one set-up, a template
  // subset for the DP-driven workloads); used by the benchmark's tests.
  bool smoke = false;
  // Shifts one reference value so every result checked against it is
  // counted as a failure; used by the benchmark's tests.
  bool wrong_reference = false;
  std::string trace_out;  // span dump path of a traced run ("" = none)
};

// One metric of BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool end_to_end;
};
const std::vector<MetricSpec>& MetricTable();

// What one run reports. Metrics are set by name; the printer checks them
// against MetricTable().
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
  // Counts one checked result; returns whether it passed.
  bool Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

// Reference comparison for log2 bounds: finite and within 1e-6.
bool MatchesReference(double value, double reference);

// q-quantile (0..1) of `v` by nearest rank.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
// Mean of the samples whose rank lies within q +- 0.05: a quantile that
// does not jump between the sparse clusters of a multi-modal sample.
double SmoothedQuantile(std::vector<double> v, double q);
// Median over windows of each window's q-quantile; empty windows are
// skipped. One slow window moves it no more than any other single window.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q);
double Mean(const std::vector<double>& v);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// The JOB-style data set at `scale`. The data is the same for every
// benchmark seed (the generator's default seed); the seed drives the
// traffic: request mix, arrival times and invalidation order. Seeded data
// moved plan and probe costs by up to 50% between seeds, far beyond the
// regression bounds.
lpb::JobWorkloadOptions JobOptions(double scale);

// Optional template subset for smoke runs: the first `limit` templates
// (all when limit <= 0).
std::vector<lpb::Query> Templates(const lpb::JobWorkload& wl, int limit);

// Cold one-shot reference for one query: LpNormBound on the statistics
// the advisor's Explain assembles. Thread-safe.
double ColdReference(lpb::CardinalityAdvisor& advisor, const lpb::Query& q);

// Distinct degree-sequence keys (relation, U columns, V columns) the
// advisor maintains for a query set, grouped by relation; used to replay
// one relation's statistics recompute through the relation layer.
struct NormKey {
  std::vector<int> u_cols;
  std::vector<int> v_cols;
  bool operator<(const NormKey& o) const {
    return u_cols != o.u_cols ? u_cols < o.u_cols : v_cols < o.v_cols;
  }
};
// relation -> key -> (p -> log2 norm the advisor reported).
using NormKeys =
    std::map<std::string, std::map<NormKey, std::map<double, double>>>;
NormKeys CollectNormKeys(lpb::CardinalityAdvisor& advisor,
                         const std::vector<lpb::Query>& queries);
// Recomputes every key of `relation` through ComputeDegreeSequence and
// DegreeSequence::Log2NormP at each of `norms`; returns how many values
// disagree with the advisor's by more than 1e-9.
int RecomputeRelation(const lpb::Catalog& catalog, const NormKeys& keys,
                      const std::string& relation,
                      const std::vector<double>& norms);

// Which relation to invalidate next: every relation once per cycle, in a
// seeded order reshuffled each cycle, so runs of equal length invalidate
// each relation equally often.
class InvalidationOrder {
 public:
  InvalidationOrder(std::vector<std::string> relations, uint64_t seed);
  const std::string& Next();

 private:
  std::vector<std::string> relations_;
  lpb::Rng rng_;
  size_t next_;
};

// Advisor counter deltas reported by every workload's traced run.
void SetAdvisorLayerMetrics(Report& report, const lpb::AdvisorMetrics& before,
                            const lpb::AdvisorMetrics& after,
                            size_t compiled_structures);

// LP kernel metrics from the calling thread's counters: calls per unit of
// work over an untimed-cycles phase [calls_before, calls_after), and
// cycles per call over a cycle-timed phase [cycles_before, cycles_after).
void SetKernelMetrics(Report& report, const lpb::LpKernelCounters& calls_before,
                      const lpb::LpKernelCounters& calls_after, double units,
                      const lpb::LpKernelCounters& cycles_before,
                      const lpb::LpKernelCounters& cycles_after);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and
// written once at exit. Single-threaded: each workload records from the
// one thread that observes its requests.

inline constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoSpan;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint32_t Intern(std::string_view name);
  uint32_t Begin(uint32_t name, uint32_t parent, uint64_t request);
  void End(uint32_t span);
  // Records a span whose interval was measured elsewhere.
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  size_t size() const { return spans_.size(); }

  // Per span name: total duration and total self time (duration minus the
  // time its direct children cover), in ns, and the span count.
  struct Totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Aggregate() const;

  // Writes up to `max_spans` spans as CSV (name,start_ns,end_ns,parent,
  // request). Returns false if the file cannot be written.
  bool Write(const std::string& path, size_t max_spans) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, uint32_t name, uint32_t parent, uint64_t request)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, parent, request) : kNoSpan) {}
  ~ScopedSpan() {
    if (id_ != kNoSpan) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

// Workload entry points.
Report RunTemplatesScalar(const Options& options, Tracer& tracer);
Report RunOptimizeDp(const Options& options, Tracer& tracer);
Report RunServeTemplates(const Options& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
