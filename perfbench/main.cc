// Repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--smoke] [--wrong-reference]
//
// Runs one workload against the library's public API, checks every result
// against a reference computed at set-up, and prints one line per metric
// ("metric <name> <value> <unit>") followed, as the last line, by one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics, a traced run (--trace 1) the
// per-layer ones. Exits nonzero when any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

using perfbench::MetricTable;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <templates_scalar|"
               "optimize_dp|serve_templates_open> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--smoke] "
               "[--wrong-reference]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--wrong-reference") {
      o.wrong_reference = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 120.0) Usage("bad --seconds");
  return o;
}

// Prints the metric lines and the final JSON line. Returns false when the
// workload failed to set a metric the table requires for this mode.
bool Print(const Report& report, bool trace) {
  bool complete = true;
  std::string json;
  for (const perfbench::MetricSpec& spec : MetricTable()) {
    if (spec.end_to_end == trace) continue;
    // A per-layer metric a workload does not exercise reads 0.
    const auto it = report.values.find(spec.name);
    double value = 0.0;
    if (it != report.values.end()) {
      value = it->second;
    } else if (spec.end_to_end) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name.c_str());
      complete = false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   spec.name.c_str());
      complete = false;
      value = 0.0;
    }
    std::printf("metric %s %.9g %s\n", spec.name.c_str(), value,
                spec.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name.c_str(), value,
                  spec.unit.c_str());
    json += buf;
  }
  const double fail_frac =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::printf("# fail_frac %.9g (%llu of %llu checked results failed)\n",
              fail_frac, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  const bool correct = complete && report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  perfbench::Tracer tracer(options.trace);
  Report report;
  if (options.workload == "templates_scalar") {
    report = perfbench::RunTemplatesScalar(options, tracer);
  } else if (options.workload == "optimize_dp") {
    report = perfbench::RunOptimizeDp(options, tracer);
  } else if (options.workload == "serve_templates_open") {
    report = perfbench::RunServeTemplates(options, tracer);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (!options.trace && !report.values.count("peak_rss_mb")) {
    report.Set("peak_rss_mb", perfbench::PeakRssMb());
  }
  if (options.trace && !options.trace_out.empty() &&
      !tracer.Write(options.trace_out, 200000)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }
  return Print(report, options.trace) ? 0 : 1;
}
