// perfbench: the benchmark of record.
//
//   perfbench --workload <static-build|churn-local|serve-openloop> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--corrupt <check>]
//             [--trace-out <path>] [--commit <id>] [--source-sha256 <hex>]
//
// Prints progress and every correctness check, then one "meta" JSON line
// (seed, machine, build, threads), one line per metric, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the spans are written to --trace-out.
//
// Exit codes: 0 all checks passed, 1 a check failed, 2 usage error,
// 3 the run threw.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr const char* kCorruptible[] = {"load", "stretch", "churn-final", "serve-final",
                                        "serve-visible"};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_args(int argc, char** argv, RunConfig& cfg, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string& out) {
      if (i + 1 >= argc) {
        error = arg + " needs a value";
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string v;
    try {
      if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--workload") {
        if (!value(cfg.workload)) return false;
      } else if (arg == "--seed") {
        if (!value(v)) return false;
        cfg.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        if (!value(v)) return false;
        cfg.seconds = std::stod(v);
      } else if (arg == "--trace") {
        if (!value(v)) return false;
        if (v != "0" && v != "1") {
          error = "--trace takes 0 or 1";
          return false;
        }
        cfg.trace = v == "1";
      } else if (arg == "--corrupt") {
        if (!value(cfg.corrupt)) return false;
      } else if (arg == "--trace-out") {
        if (!value(cfg.trace_out)) return false;
      } else if (arg == "--commit") {
        if (!value(cfg.commit)) return false;
      } else if (arg == "--source-sha256") {
        if (!value(cfg.source_sha256)) return false;
      } else {
        error = "unknown argument " + arg;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad number for " + arg + ": " + v;
      return false;
    }
  }
  if (cfg.workload != "static-build" && cfg.workload != "churn-local" &&
      cfg.workload != "serve-openloop") {
    error = "--workload must be static-build, churn-local or serve-openloop";
    return false;
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    error = "--seconds must be in (0, 600]";
    return false;
  }
  if (!cfg.corrupt.empty() &&
      std::find(std::begin(kCorruptible), std::end(kCorruptible), cfg.corrupt) ==
          std::end(kCorruptible)) {
    error = "--corrupt must name one of: load stretch churn-final serve-final serve-visible";
    return false;
  }
  return true;
}

/// The timed phases of each workload; per-layer self times cover these.
std::vector<std::string> timed_phases(const std::string& workload) {
  if (workload == "static-build") return {"load", "pipeline"};
  if (workload == "churn-local") return {"small", "bulk"};
  return {"light", "heavy", "saturate"};
}

int run(const RunConfig& cfg) {
  Tracer tracer(cfg.trace);
  Metrics metrics;
  Outcome outcome;
  Meta meta;
  Context ctx{cfg, tracer, metrics, outcome, meta};
  meta["workload"] = cfg.workload;
  meta["seed"] = std::to_string(cfg.seed);
  meta["seconds"] = number(cfg.seconds);
  meta["trace"] = cfg.trace ? "1" : "0";
  meta["smoke"] = cfg.smoke ? "1" : "0";
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["cpu_model"] = cpu_model();
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["compiler"] = __VERSION__;
  meta["commit"] = cfg.commit;
  meta["source_sha256"] = cfg.source_sha256;
  meta["pool_threads"] = std::to_string(remspan::ThreadPool::global().size());
  meta["driver_threads"] = "1";

  if (cfg.workload == "static-build") {
    run_static_build(ctx);
  } else if (cfg.workload == "churn-local") {
    run_churn_local(ctx);
  } else {
    run_serve_openloop(ctx);
  }
  metrics.set("peak_rss_mb", peak_rss_mb());

  if (cfg.trace) {
    const auto self = tracer.self_seconds(timed_phases(cfg.workload));
    double total = 0.0;
    for (const char* layer : {"bench", "geom", "graph", "core", "analysis", "dynamic", "serve"}) {
      const auto it = self.find(layer);
      const double s = it == self.end() ? 0.0 : it->second;
      metrics.set(std::string("self.") + layer + "_s", s);
      total += s;
    }
    metrics.set("trace.spans", static_cast<double>(tracer.spans().size()));
    // Share of the traced timed operations spent inside library calls
    // (static-build sets its own: geom + core + analysis over the pipeline).
    if (!metrics.has("trace.layer_share")) {
      metrics.set("trace.layer_share",
                  total > 0.0 ? 1.0 - metrics.get("self.bench_s") / total : 0.0);
    }
    if (!cfg.trace_out.empty()) {
      std::string error;
      if (!write_trace(cfg.trace_out, tracer, &error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 3;
      }
      meta["trace_file"] = cfg.trace_out;
      std::cout << "trace: " << tracer.spans().size() << " spans written to " << cfg.trace_out
                << "\n";
    }
  }

  std::ostringstream meta_line;
  meta_line << "{\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    meta_line << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  meta_line << "}}";
  std::cout << meta_line.str() << "\n";

  const auto& defs = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream result;
  result << "{\"correct\": " << (outcome.correct() ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
         << ", \"metrics\": {";
  first = true;
  bool finite = true;
  for (const MetricDef& d : defs) {
    const double v = metrics.get(d.name);
    // An end-to-end metric is always measured; only per-layer ones may be
    // absent (the layer did no work) and read 0.
    finite = finite && std::isfinite(v) && (cfg.trace || metrics.has(d.name));
    std::cout << "metric " << d.name << " = " << number(v) << " " << d.unit << "\n";
    result << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": " << number(v)
           << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  }
  result << "}}";
  if (!finite) {
    std::cerr << "perfbench: a metric is missing or not a finite number\n";
    return 3;
  }
  if (!outcome.correct()) {
    std::cout << "FAILED checks:";
    for (const std::string& c : outcome.failed_checks) std::cout << " " << c;
    std::cout << "\n";
  }
  std::cout << result.str() << std::endl;
  return outcome.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string error;
  if (!perfbench::parse_args(argc, argv, cfg, error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  try {
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
