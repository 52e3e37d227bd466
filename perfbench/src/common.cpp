#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "api/observability.hpp"
#include "geom/points.hpp"
#include "graph/graphio.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

// --- tracing ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* layer, std::string name)
    : tracer_(tracer), start_us_(remspan::obs::process_micros()) {
  if (!tracer_.recording()) return;
  Span s;
  s.name = std::move(name);
  s.layer = layer;
  s.phase = tracer_.phase_;
  s.op = tracer_.op_;
  s.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  s.start_us = start_us_;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(s));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() { (void)stop(); }

double Tracer::Scope::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const double end_us = remspan::obs::process_micros();
  seconds_ = (end_us - start_us_) * 1e-6;
  if (index_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(index_)].end_us = end_us;
    auto& open = tracer_.open_;
    const auto it = std::find(open.rbegin(), open.rend(), index_);
    if (it != open.rend()) open.erase(std::next(it).base());
  }
  return seconds_;
}

std::uint64_t Tracer::begin_op(const char* phase, bool recorded) {
  phase_ = phase;
  recorded_ = recorded;
  return ++op_;
}

std::map<std::string, double> Tracer::self_seconds(const std::vector<std::string>& phases) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::find(phases.begin(), phases.end(), s.phase) == phases.end()) continue;
    out[s.layer] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
  }
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

constexpr std::uint32_t kBenchPid = 3;

void write_event(std::ostream& out, bool& first, const std::string& name, const std::string& cat,
                 char ph, double ts, std::uint32_t pid, std::uint32_t tid,
                 const std::string& args = "") {
  out << (first ? "\n" : ",\n") << "{\"name\":" << json_string(name)
      << ",\"cat\":" << json_string(cat) << ",\"ph\":\"" << ph << "\",\"ts\":" << ts
      << ",\"pid\":" << pid << ",\"tid\":" << tid;
  if (!args.empty()) out << ",\"args\":{" << args << "}";
  out << "}";
  first = false;
}

}  // namespace

bool write_trace(const std::string& path, const Tracer& tracer, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out.precision(3);
  out << std::fixed << "{\"traceEvents\":[";
  bool first = true;
  write_event(out, first, "process_name", "__metadata", 'M', 0.0, kBenchPid, 0,
              "\"name\":\"perfbench\"");
  write_event(out, first, "process_name", "__metadata", 'M', 0.0, remspan::obs::kEnginePid, 0,
              "\"name\":\"remspan engine\"");

  // Benchmark spans: stored in opening order, children after parents, so a
  // stack walk emits properly nested B/E pairs on one lane.
  const auto& spans = tracer.spans();
  std::vector<std::size_t> stack;
  const auto close = [&](std::size_t i) {
    write_event(out, first, spans[i].name, spans[i].layer, remspan::obs::kPhaseEnd,
                spans[i].end_us, kBenchPid, 0);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty() && static_cast<std::int64_t>(stack.back()) != s.parent) {
      close(stack.back());
      stack.pop_back();
    }
    std::ostringstream args;
    args << "\"id\":" << i << ",\"op\":" << s.op << ",\"parent\":" << s.parent
         << ",\"layer\":" << json_string(s.layer) << ",\"phase\":" << json_string(s.phase);
    write_event(out, first, s.name, s.layer, remspan::obs::kPhaseBegin, s.start_us, kBenchPid,
                0, args.str());
    stack.push_back(i);
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }

  // Engine spans: keep only matched B/E pairs per lane (a full ring drops
  // the newest events, which can leave a span open).
  const std::vector<remspan::obs::TraceEvent> events =
      remspan::api::observability_trace_buffer().events();
  std::vector<bool> keep(events.size(), false);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    auto& lane = open[{e.pid, e.tid}];
    if (e.ph == remspan::obs::kPhaseBegin) {
      lane.push_back(i);
    } else if (e.ph == remspan::obs::kPhaseEnd) {
      if (!lane.empty() && events[lane.back()].name == e.name) {
        keep[lane.back()] = true;
        keep[i] = true;
        lane.pop_back();
      }
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!keep[i]) continue;
    const auto& e = events[i];
    write_event(out, first, e.name, e.cat, e.ph, e.ts, e.pid, e.tid);
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

// --- metrics and checks -----------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"geom.points_s", "s"},
        {"geom.unit_ball_graph_s", "s"},
        {"geom.largest_component_s", "s"},
        {"geom.nodes", "count"},
        {"geom.edges", "count"},
        {"graph.read_edge_list_s", "s"},
        {"graph.edge_list_bytes", "bytes"},
    };
    for (const char* spec : {"th1", "th2k1", "th2k2", "th3"}) {
      const std::string prefix = std::string("core.") + spec;
      d.push_back({prefix + ".build_s", "s"});
      d.push_back({prefix + ".spanner_edges", "count"});
      d.push_back({prefix + ".sum_tree_edges", "count"});
    }
    const std::vector<MetricDef> rest = {
        {"bfs.nodes_expanded", "count"},
        {"domtree.heap_pops", "count"},
        {"domtree.cover_touches", "count"},
        {"union.words_ord", "count"},
        {"union.cas_retries", "count"},
        {"analysis.stats_s", "s"},
        {"dynamic.small.apply_batch_s", "s"},
        {"dynamic.small.dirty_roots_mean", "count"},
        {"dynamic.small.rebuilt_tree_edges_mean", "count"},
        {"dynamic.small.applied_events", "count"},
        {"dynamic.bulk.apply_batch_s", "s"},
        {"dynamic.bulk.dirty_roots_mean", "count"},
        {"dynamic.bulk.rebuilt_tree_edges_mean", "count"},
        {"dynamic.bulk.applied_events", "count"},
        {"dynamic.graph_apply_snapshot_s", "s"},
        {"dynamic.diff_graphs_s", "s"},
        {"dynamic.collect_dirty_roots_s", "s"},
        {"dynamic.small.fixed_share", "ratio"},
        {"inc.expand_old_nodes", "count"},
        {"inc.expand_new_nodes", "count"},
        {"inc.refcount_churn", "count"},
        {"serve.submit_us_p50", "us"},
        {"serve.snapshot_us_p50", "us"},
        {"serve.light.visible_p99_ms", "ms"},
        {"serve.heavy.visible_p50_ms", "ms"},
        {"serve.heavy.visible_p99_ms", "ms"},
        {"serve.heavy.read_p50_us", "us"},
        {"serve.light.epochs_published", "count"},
        {"serve.light.events_per_epoch", "count"},
        {"serve.light.coalesced_ratio", "ratio"},
        {"serve.light.max_queue_depth", "count"},
        {"serve.light.rejected", "count"},
        {"serve.light.generator_late_ms_max", "ms"},
        {"serve.heavy.epochs_published", "count"},
        {"serve.heavy.events_per_epoch", "count"},
        {"serve.heavy.coalesced_ratio", "ratio"},
        {"serve.heavy.max_queue_depth", "count"},
        {"serve.heavy.rejected", "count"},
        {"serve.heavy.generator_late_ms_max", "ms"},
        {"self.bench_s", "s"},
        {"self.geom_s", "s"},
        {"self.graph_s", "s"},
        {"self.core_s", "s"},
        {"self.analysis_s", "s"},
        {"self.dynamic_s", "s"},
        {"self.serve_s", "s"},
        {"e2e.p95_ms", "ms"},
        {"trace.spans", "count"},
        {"trace.layer_share", "ratio"},
        {"trace.overhead.p50_ms", "ms"},
        {"trace.overhead.throughput_per_s", "1/s"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Outcome::check(const std::string& name, bool ok, const std::string& detail) {
  std::cout << "check " << name << ": " << (ok ? "ok" : "FAILED");
  if (!detail.empty()) std::cout << " (" << detail << ")";
  std::cout << "\n";
  if (!ok) failed_checks.push_back(name);
}

// --- helpers ----------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double rate(const std::vector<double>& work, const std::vector<double>& seconds) {
  double w = 0.0, t = 0.0;
  for (const double x : work) w += x;
  for (const double x : seconds) t += x;
  return t > 0.0 ? w / t : 0.0;
}

std::string describe(const std::vector<double>& values) {
  std::ostringstream out;
  out << "n=" << values.size();
  for (const auto& [label, p] : {std::pair{"p10", 0.10}, std::pair{"p25", 0.25},
                                 std::pair{"p50", 0.50}, std::pair{"p95", 0.95},
                                 std::pair{"max", 1.0}}) {
    out << " " << label << "=" << percentile(values, p);
  }
  return out.str();
}

remspan::GeometricGraph make_udg(Tracer& tracer, GeomTimes& times, std::uint64_t seed,
                                 double mean_nodes, double degree) {
  // Poisson points of intensity degree/pi in a square give unit disks of
  // expected degree `degree`.
  const double side = std::sqrt(mean_nodes * std::acos(-1.0) / degree);
  remspan::Rng rng(seed);
  auto s1 = tracer.span("geom", "geom.poisson_points_in_square");
  remspan::PointSet points = remspan::poisson_points_in_square(side, mean_nodes, rng);
  times.points.push_back(s1.stop());
  auto s2 = tracer.span("geom", "geom.unit_ball_graph");
  remspan::GeometricGraph gg = remspan::unit_ball_graph(std::move(points));
  times.unit_ball_graph.push_back(s2.stop());
  auto s3 = tracer.span("geom", "geom.largest_component");
  remspan::GeometricGraph lc = remspan::largest_component(std::move(gg));
  times.largest_component.push_back(s3.stop());
  return lc;
}

std::string to_edge_list(Tracer& tracer, const Graph& g) {
  auto s = tracer.span("graph", "graph.write_edge_list");
  std::ostringstream out;
  remspan::write_edge_list(out, g);
  return std::move(out).str();
}

Graph load_edge_list(Tracer& tracer, const std::string& text, double* seconds) {
  std::istringstream in(text);
  auto s = tracer.span("graph", "graph.read_edge_list");
  Graph g = remspan::read_edge_list(in);
  const double t = s.stop();
  if (seconds != nullptr) *seconds = t;
  return g;
}

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) return false;
  const auto ea = a.edges();
  const auto eb = b.edges();
  return std::equal(ea.begin(), ea.end(), eb.begin(), eb.end(),
                    [](const Edge& x, const Edge& y) { return x.u == y.u && x.v == y.v; });
}

void report_geom(Metrics& metrics, const GeomTimes& times, const Graph& g) {
  metrics.set("geom.points_s", median(times.points));
  metrics.set("geom.unit_ball_graph_s", median(times.unit_ball_graph));
  metrics.set("geom.largest_component_s", median(times.largest_component));
  metrics.set("geom.nodes", g.num_nodes());
  metrics.set("geom.edges", static_cast<double>(g.num_edges()));
}

remspan::obs::Snapshot obs_counters() {
  return remspan::api::observability_registry().snapshot();
}

double counter_delta(const remspan::obs::Snapshot& later, const remspan::obs::Snapshot& earlier,
                     const std::string& name) {
  const auto get = [&](const remspan::obs::Snapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(later) - get(earlier);
}

void BatchStats::add(const remspan::ChurnBatchStats& st, double seconds) {
  apply_s.push_back(seconds);
  dirty_roots.push_back(static_cast<double>(st.dirty_roots));
  rebuilt_tree_edges.push_back(static_cast<double>(st.rebuilt_tree_edges));
  applied_events += static_cast<double>(st.applied_events);
}

void BatchStats::report(Metrics& metrics, const std::string& phase) const {
  metrics.set("dynamic." + phase + ".apply_batch_s", median(apply_s));
  metrics.set("dynamic." + phase + ".dirty_roots_mean", mean(dirty_roots));
  metrics.set("dynamic." + phase + ".rebuilt_tree_edges_mean", mean(rebuilt_tree_edges));
  metrics.set("dynamic." + phase + ".applied_events", applied_events);
}

void ObsTally::add(const remspan::obs::Snapshot& after, const remspan::obs::Snapshot& before) {
  for (const auto& [name, value] : after.counters) sums[name] += counter_delta(after, before, name);
  ++ops;
}

double ObsTally::mean(const std::string& name) const {
  const auto it = sums.find(name);
  return it == sums.end() || ops == 0 ? 0.0 : it->second / static_cast<double>(ops);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

}  // namespace perfbench
