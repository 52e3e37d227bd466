// Shared machinery of the perfbench driver: run settings, the span tracer
// that wraps every call the benchmark makes into a library layer, the
// metric table, correctness bookkeeping and small statistics helpers.
//
// The driver only calls the library's public functions. Layers are named
// after the src/ modules they time: geom, graph, core, analysis, dynamic,
// serve; "bench" is the driver's own glue.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dynamic/incremental_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using remspan::Edge;
using remspan::EdgeSet;
using remspan::Graph;
using remspan::NodeId;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases: seconds-long runs for the self-test.
  bool smoke = false;
  /// Name of the correctness check whose input is deliberately corrupted
  /// ("" = none). The named check must then fail.
  std::string corrupt;
  std::string trace_out;
  /// Provenance handed in by run.py (not measured by the binary itself).
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
};

// --- tracing ----------------------------------------------------------------

/// One finished span. Times are obs::process_micros() so the in-program
/// engine spans (core.union_of_trees, inc.apply_batch, serve.publish_epoch)
/// merge into the same timeline.
struct Span {
  std::string name;
  const char* layer = "bench";
  const char* phase = "setup";
  std::uint64_t op = 0;    ///< operation id shared by the spans of one operation
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the top
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Records spans around the benchmark's calls into each layer. Every scope
/// is a stopwatch; it is also stored as a span when the tracer is enabled
/// and the current operation is recorded. In a traced run operations
/// alternate recorded / unrecorded, so the untraced half gives the
/// reference values for the tracing overhead. Driver thread only.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span (idempotent) and returns its duration in seconds.
    double stop();

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    double start_us_ = 0.0;
    double seconds_ = -1.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Starts a new operation in `phase`; its spans are stored when the
  /// tracer is enabled and `recorded` is true. Returns the operation id.
  std::uint64_t begin_op(const char* phase, bool recorded = true);
  /// Whether the current operation's spans are stored.
  [[nodiscard]] bool recording() const noexcept { return enabled_ && recorded_; }
  /// For a traced run: whether operation number `i` of a phase is recorded
  /// (odd ones are, even ones give the untraced reference).
  [[nodiscard]] bool records_op(std::size_t i) const noexcept { return enabled_ && i % 2 == 1; }

  [[nodiscard]] Scope span(const char* layer, std::string name) {
    return Scope(*this, layer, std::move(name));
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per layer over the spans of the given phases: a span's
  /// duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      const std::vector<std::string>& phases) const;

 private:
  bool enabled_;
  bool recorded_ = true;
  const char* phase_ = "setup";
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Writes the benchmark's spans plus the engine's in-program spans as one
/// Chrome trace_event document (open it in Perfetto or check it with
/// tools/trace_check). Returns false on I/O failure.
bool write_trace(const std::string& path, const Tracer& tracer, std::string* error);

// --- metrics and checks -----------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

/// The end-to-end metrics (tracing off) and the per-layer metrics (traced
/// run), in output order. BENCHMARK.json lists exactly these.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Metric values by name. Per-layer metrics a workload never touches stay
/// at 0: that layer did no work in the run.
class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Correctness and operation accounting of one run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;

  /// Records a correctness check; a failure is printed with `detail`.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  [[nodiscard]] bool correct() const noexcept { return failed_checks.empty(); }
};

/// Run provenance printed beside the metrics (machine, build, threads).
using Meta = std::map<std::string, std::string>;

/// Everything a workload needs.
struct Context {
  const RunConfig& cfg;
  Tracer& tracer;
  Metrics& metrics;
  Outcome& outcome;
  Meta& meta;
};

void run_static_build(Context& ctx);
void run_churn_local(Context& ctx);
void run_serve_openloop(Context& ctx);

// --- helpers ----------------------------------------------------------------

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// Median (mean of the middle two for even sizes); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 1]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double mean(const std::vector<double>& values);
/// sum(work) / sum(seconds): a throughput over all samples, which averages
/// over the machine's slow and fast stretches instead of picking one.
[[nodiscard]] double rate(const std::vector<double>& work, const std::vector<double>& seconds);
/// "n=.. p10=.. p25=.. p50=.. p95=.. max=.." summary for the progress log.
[[nodiscard]] std::string describe(const std::vector<double>& values);

/// Samples of one quantity split by whether their operation was traced.
struct Samples {
  std::vector<double> values[2];
  void add(bool traced, double v) { values[traced ? 1 : 0].push_back(v); }
  [[nodiscard]] const std::vector<double>& untraced() const { return values[0]; }
  [[nodiscard]] const std::vector<double>& traced() const { return values[1]; }
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> v = values[0];
    v.insert(v.end(), values[1].begin(), values[1].end());
    return v;
  }
};

/// Poisson random unit disk graph with `mean_nodes` expected points at
/// average degree `degree`, reduced to its largest component. Each library
/// call is a span in the geom layer; the medians per call feed the geom.*
/// per-layer metrics.
struct GeomTimes {
  std::vector<double> points;
  std::vector<double> unit_ball_graph;
  std::vector<double> largest_component;
};
[[nodiscard]] remspan::GeometricGraph make_udg(Tracer& tracer, GeomTimes& times,
                                               std::uint64_t seed, double mean_nodes,
                                               double degree);

/// The graph as edge-list text (graph layer, write side).
[[nodiscard]] std::string to_edge_list(Tracer& tracer, const Graph& g);
/// Parses edge-list text with read_edge_list (graph layer, read side).
[[nodiscard]] Graph load_edge_list(Tracer& tracer, const std::string& text, double* seconds);

/// Whether two graphs have the same node count and the same edges, in
/// the same (canonical) order.
[[nodiscard]] bool same_graph(const Graph& a, const Graph& b);

/// Sets the geom.* per-layer metrics from the collected call times and
/// the workload's graph size.
void report_geom(Metrics& metrics, const GeomTimes& times, const Graph& g);

/// IncrementalSpanner batches of one phase, for the dynamic.<phase>.*
/// per-layer metrics.
struct BatchStats {
  std::vector<double> apply_s;
  std::vector<double> dirty_roots;
  std::vector<double> rebuilt_tree_edges;
  double applied_events = 0.0;
  void add(const remspan::ChurnBatchStats& st, double seconds);
  void report(Metrics& metrics, const std::string& phase) const;
};

/// Sums of obs counter deltas over traced operations, for per-operation
/// means.
struct ObsTally {
  std::map<std::string, double> sums;
  std::size_t ops = 0;
  void add(const remspan::obs::Snapshot& after, const remspan::obs::Snapshot& before);
  [[nodiscard]] double mean(const std::string& name) const;
};

/// `s` as a quoted JSON string.
[[nodiscard]] std::string json_string(const std::string& s);

/// Current counters of the facade-owned obs registry.
[[nodiscard]] remspan::obs::Snapshot obs_counters();
/// Counter `name` in `later - earlier` (0 when absent).
[[nodiscard]] double counter_delta(const remspan::obs::Snapshot& later,
                                   const remspan::obs::Snapshot& earlier,
                                   const std::string& name);

/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();
/// Processor brand string (cpuid), or "unknown".
[[nodiscard]] std::string cpu_model();

}  // namespace perfbench
