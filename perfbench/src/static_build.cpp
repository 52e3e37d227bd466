// static-build: the centralized pipeline on one large sparse graph.
//
// Why: geom, graph and core do almost all the work here, on a working set
// far larger than the per-core caches; dynamic and serve do none. A pass is
// two timed operations:
//   load      read_edge_list on the graph's edge-list text (made in set-up);
//   pipeline  poisson_points_in_square -> unit_ball_graph ->
//             largest_component -> api::build_spanner for four specs ->
//             compute_spanner_stats.
//
// End-to-end: p50_ms = pipeline wall time, throughput_per_s = edge lines
// parsed per second by the load.
#include <chrono>
#include <deque>
#include <iostream>
#include <memory>

#include "analysis/spanner_stats.hpp"
#include "api/observability.hpp"
#include "api/registry.hpp"
#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

struct SpecCase {
  const char* spec;
  const char* label;  ///< metric infix: core.<label>.*
};

constexpr SpecCase kSpecs[] = {
    {"th1?eps=0.5", "th1"},
    {"th2?k=1", "th2k1"},
    {"th2?k=2", "th2k2"},
    {"th3?k=2", "th3"},
};

constexpr const char* kObsCounters[] = {"bfs.nodes_expanded", "domtree.heap_pops",
                                        "domtree.cover_touches", "union.words_ord",
                                        "union.cas_retries"};

/// BFS distances from `root` (at 0) and `ring1` (at 1) over the edges
/// `keep` accepts; -1 = unreachable.
template <typename Keep>
std::vector<int> bfs(const Graph& g, NodeId root, const std::vector<NodeId>& ring1, Keep keep) {
  std::vector<int> dist(g.num_nodes(), -1);
  std::deque<NodeId> queue;
  dist[root] = 0;
  queue.push_back(root);
  for (const NodeId x : ring1) {
    if (dist[x] < 0) {
      dist[x] = 1;
      queue.push_back(x);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const auto nbrs = g.neighbors(u);
    const auto ids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (dist[nbrs[i]] >= 0 || !keep(ids[i])) continue;
      dist[nbrs[i]] = dist[u] + 1;
      queue.push_back(nbrs[i]);
    }
  }
  return dist;
}

/// Sampled remote-stretch oracle: for seeded sources u, d_{H_u}(u, .) is a
/// BFS in H seeded with u at 0 and N_G(u) at 1 (the identity of
/// src/analysis/stretch_oracle.hpp), compared with d_G(u, .) against the
/// spec's (alpha, beta) guarantee. Returns the number of violating pairs.
std::size_t stretch_violations(const Graph& g, const EdgeSet& h, remspan::Stretch guarantee,
                               std::size_t sources, std::uint64_t seed, std::size_t* pairs) {
  remspan::Rng rng(seed);
  std::size_t bad = 0;
  for (std::size_t s = 0; s < sources; ++s) {
    const auto u = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    const auto nbrs = g.neighbors(u);
    const std::vector<int> dg = bfs(g, u, {}, [](remspan::EdgeId) { return true; });
    const std::vector<int> dh = bfs(g, u, std::vector<NodeId>(nbrs.begin(), nbrs.end()),
                                    [&](remspan::EdgeId id) { return h.contains(id); });
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == u || dg[v] < 0) continue;
      ++*pairs;
      if (dh[v] < 0 || dh[v] > guarantee.bound(dg[v]) + 1e-9) ++bad;
    }
  }
  return bad;
}

}  // namespace

void run_static_build(Context& ctx) {
  const RunConfig& cfg = ctx.cfg;
  Tracer& tr = ctx.tracer;
  Metrics& m = ctx.metrics;
  Outcome& out = ctx.outcome;
  const double mean_nodes = cfg.smoke ? 3000.0 : 100000.0;
  const double degree = 10.0;
  const std::size_t oracle_sources = cfg.smoke ? 8 : 24;
  const std::size_t min_passes = cfg.trace ? 4 : 3;
  ctx.meta["static.mean_nodes"] = std::to_string(mean_nodes);
  ctx.meta["static.degree"] = std::to_string(degree);

  // Set-up, kSetupReps times: generate the graph and its edge-list text.
  GeomTimes setup_geom;
  std::vector<double> setup_s;
  std::string text;
  Graph reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tr.begin_op("setup");
    auto s = tr.span("bench", "setup");
    remspan::GeometricGraph gg = make_udg(tr, setup_geom, cfg.seed, mean_nodes, degree);
    text = to_edge_list(tr, gg.graph);
    reference = std::move(gg.graph);
    setup_s.push_back(s.stop());
  }
  m.set("setup_s", median(setup_s));
  m.set("graph.edge_list_bytes", static_cast<double>(text.size()));
  std::cout << "static-build: n=" << reference.num_nodes() << " m=" << reference.num_edges()
            << " edge-list " << text.size() << " bytes\n";
  if (cfg.corrupt == "load") {
    // Drop the last edge line: the loaded graph must no longer match.
    text.erase(text.find_last_of('\n', text.size() - 2) + 1);
  }

  Samples load_s, load_edges, pipeline_ms;
  std::map<std::string, std::vector<double>> build_s;
  std::vector<double> stats_s;
  GeomTimes pipe_geom;
  ObsTally obs;
  bool load_equal = true;
  bool deterministic = true;
  std::unique_ptr<remspan::GeometricGraph> last_graph;
  std::vector<remspan::api::SpannerResult> last_results;

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = tr.records_op(pass);
    if (cfg.trace) remspan::api::enable_observability(traced, traced);

    tr.begin_op("load", traced);
    {
      auto s = tr.span("bench", "load");
      double t = 0.0;
      const Graph loaded = load_edge_list(tr, text, &t);
      s.stop();
      load_s.add(traced, t);
      load_edges.add(traced, static_cast<double>(loaded.num_edges()));
      load_equal = load_equal && same_graph(loaded, reference);
      ++out.attempted;
    }

    tr.begin_op("pipeline", traced);
    const remspan::obs::Snapshot before = traced ? obs_counters() : remspan::obs::Snapshot{};
    std::unique_ptr<remspan::GeometricGraph> gg;
    std::vector<remspan::api::SpannerResult> results;
    {
      auto ps = tr.span("bench", "pipeline");
      gg = std::make_unique<remspan::GeometricGraph>(
          make_udg(tr, pipe_geom, cfg.seed, mean_nodes, degree));
      for (const SpecCase& sc : kSpecs) {
        auto bs = tr.span("core", std::string("core.build_spanner ") + sc.spec);
        results.push_back(remspan::api::build_spanner(gg->graph, sc.spec));
        build_s[sc.label].push_back(bs.stop());
        auto as = tr.span("analysis", "analysis.compute_spanner_stats");
        (void)remspan::compute_spanner_stats(results.back().edges);
        stats_s.push_back(as.stop());
      }
      pipeline_ms.add(traced, ps.stop() * 1e3);
      ++out.attempted;
    }
    if (traced) obs.add(obs_counters(), before);
    deterministic = deterministic && same_graph(gg->graph, reference);

    last_results = std::move(results);
    last_graph = std::move(gg);
    if (pass + 1 >= min_passes && elapsed() >= cfg.seconds) break;
  }
  if (cfg.trace) remspan::api::disable_observability();
  std::cout << "static-build: " << load_s.all().size() << " passes in " << elapsed() << " s\n"
            << "static-build: pipeline ms " << describe(pipeline_ms.untraced())
            << "\nstatic-build: load s " << describe(load_s.untraced()) << "\n";

  // Checks.
  tr.begin_op("check");
  out.check("static.load_equal", load_equal, "read_edge_list(text) == generated graph");
  out.check("static.deterministic", deterministic, "pipeline graph == set-up graph");
  for (std::size_t i = 0; i < std::size(kSpecs); ++i) {
    const Graph& g = last_graph->graph;
    EdgeSet h = last_results[i].edges;
    if (cfg.corrupt == "stretch") {
      const std::vector<Edge> list = h.edge_list();
      for (std::size_t j = 0; j < list.size(); j += 2) h.remove(g.find_edge(list[j].u, list[j].v));
    }
    auto s = tr.span("bench", "check.stretch_oracle");
    std::size_t pairs = 0;
    const std::size_t bad = stretch_violations(g, h, last_results[i].guarantee, oracle_sources,
                                               cfg.seed + 17 * i, &pairs);
    out.check(std::string("static.stretch.") + kSpecs[i].label, bad == 0,
              std::to_string(bad) + " of " + std::to_string(pairs) + " sampled pairs violate " +
                  last_results[i].guarantee_label);
    ++out.attempted;
  }

  // End-to-end (untraced operations only).
  m.set("p50_ms", median(pipeline_ms.untraced()));
  m.set("e2e.p95_ms", percentile(pipeline_ms.all(), 0.95));
  m.set("throughput_per_s", rate(load_edges.untraced(), load_s.untraced()));
  ctx.meta["static.pipeline_samples"] = std::to_string(pipeline_ms.untraced().size());

  // Per-layer.
  report_geom(m, pipe_geom, reference);
  m.set("graph.read_edge_list_s", median(load_s.all()));
  for (std::size_t i = 0; i < std::size(kSpecs); ++i) {
    const std::string p = std::string("core.") + kSpecs[i].label;
    m.set(p + ".build_s", median(build_s[kSpecs[i].label]));
    m.set(p + ".spanner_edges", static_cast<double>(last_results[i].edges.size()));
    m.set(p + ".sum_tree_edges", static_cast<double>(last_results[i].info.sum_tree_edges));
  }
  for (const char* c : kObsCounters) m.set(c, obs.mean(c));
  m.set("analysis.stats_s", median(stats_s));
  if (cfg.trace) {
    m.set("trace.overhead.p50_ms", median(pipeline_ms.traced()) - median(pipeline_ms.untraced()));
    m.set("trace.overhead.throughput_per_s",
          rate(load_edges.traced(), load_s.traced()) - m.get("throughput_per_s"));
    // The pipeline is nothing but geom, core and analysis calls: their self
    // times should cover its traced wall time up to the glue between them.
    const auto self = tr.self_seconds({"pipeline"});
    double layers = 0.0;
    for (const char* l : {"geom", "core", "analysis"}) {
      const auto it = self.find(l);
      if (it != self.end()) layers += it->second;
    }
    double traced_pipeline_s = 0.0;
    for (const double v : pipeline_ms.traced()) traced_pipeline_s += v * 1e-3;
    m.set("trace.layer_share", traced_pipeline_s > 0.0 ? layers / traced_pipeline_s : 0.0);
    std::cout << "static-build: geom+core+analysis self time " << layers << " s of "
              << traced_pipeline_s << " s traced pipeline\n";
  }
}

}  // namespace perfbench
