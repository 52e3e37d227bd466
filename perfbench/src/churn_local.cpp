// churn-local: one incremental session under churn.
//
// Why: every batch pays fixed O(m) passes (snapshot merge, diff_graphs,
// edge-id remap, refcount rescan) plus tree rebuilds proportional to the
// dirty ball. Small batches are dominated by the fixed passes, bulk batches
// by the rebuilds, so a change that trades one cost for the other shows on
// one of the two phases:
//   small  batches of 4 random_edge_churn_trace edge toggles (>= 200);
//   bulk   mobility_churn_trace batches moving 0.1% of the nodes each,
//          replayed forward and then undone in reverse (the movers walk
//          back).
// Blocks of the two alternate until the measuring time is used.
//
// End-to-end: p50_ms = small-batch apply_batch latency, throughput_per_s =
// bulk events applied per second.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>

#include "api/observability.hpp"
#include "api/registry.hpp"
#include "common.hpp"
#include "dynamic/churn_trace.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "graph/bfs.hpp"

namespace perfbench {
namespace {

constexpr const char* kSpec = "th1?eps=0.5";
constexpr std::size_t kSmallEvents = 4;
constexpr std::size_t kSmallPerBlock = 20;
constexpr std::size_t kBulkPerBlock = 2;
constexpr const char* kCoreCounters[] = {"bfs.nodes_expanded", "domtree.heap_pops",
                                         "domtree.cover_touches", "union.words_ord",
                                         "union.cas_retries"};
constexpr const char* kIncCounters[] = {"inc.expand_old_nodes", "inc.expand_new_nodes",
                                        "inc.refcount_churn"};

struct Inputs {
  std::unique_ptr<remspan::GeometricGraph> geometry;
  Graph graph;  ///< the graph as the program loaded it from text
  std::size_t text_bytes = 0;
  remspan::ChurnTrace small;
  remspan::ChurnTrace bulk;
  std::unique_ptr<remspan::api::IncrementalSession> session;
};

}  // namespace

void run_churn_local(Context& ctx) {
  const RunConfig& cfg = ctx.cfg;
  Tracer& tr = ctx.tracer;
  Metrics& m = ctx.metrics;
  Outcome& out = ctx.outcome;
  const double mean_nodes = cfg.smoke ? 3000.0 : 100000.0;
  const double degree = 10.0;
  const std::size_t min_small = cfg.smoke ? 40 : 200;
  const std::size_t max_small = cfg.smoke ? 80 : 4000;
  const std::size_t bulk_batches = 4;
  const remspan::api::SpannerSpec spec = remspan::api::parse_spanner_spec(kSpec);
  ctx.meta["churn.spec"] = kSpec;
  ctx.meta["churn.mean_nodes"] = std::to_string(mean_nodes);

  // Set-up, kSetupReps times: generate the graph, hand it to the program as
  // edge-list text, open the session (a full build).
  GeomTimes geom;
  std::vector<double> setup_s, load_s;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};
    tr.begin_op("setup");
    auto s = tr.span("bench", "setup");
    in.geometry = std::make_unique<remspan::GeometricGraph>(
        make_udg(tr, geom, cfg.seed, mean_nodes, degree));
    const std::string text = to_edge_list(tr, in.geometry->graph);
    in.text_bytes = text.size();
    double t = 0.0;
    in.graph = load_edge_list(tr, text, &t);
    load_s.push_back(t);
    {
      auto o = tr.span("dynamic", "api.open_incremental_session");
      in.session = remspan::api::open_incremental_session(in.graph, spec);
    }
    setup_s.push_back(s.stop());
  }
  // The churn itself is benchmark input, generated once after set-up:
  // mobility_churn_trace costs O(movers * n) per batch.
  {
    tr.begin_op("inputs");
    auto s = tr.span("bench", "inputs");
    {
      auto g = tr.span("dynamic", "dynamic.random_edge_churn_trace");
      in.small = remspan::random_edge_churn_trace(in.graph, max_small, kSmallEvents, 0.0,
                                                  cfg.seed * 31 + 1);
    }
    {
      auto g = tr.span("dynamic", "dynamic.mobility_churn_trace");
      const auto movers = std::max<std::size_t>(1, in.graph.num_nodes() / 1000);
      in.bulk = remspan::mobility_churn_trace(*in.geometry, bulk_batches, movers,
                                              cfg.seed * 31 + 2);
    }
    ctx.meta["churn.input_generation_s"] = std::to_string(s.stop());
  }
  m.set("setup_s", median(setup_s));
  std::cout << "churn-local: n=" << in.graph.num_nodes() << " m=" << in.graph.num_edges()
            << " spanner=" << in.session->spanner().size() << "\n";
  out.check("churn.input_equal", same_graph(in.graph, in.geometry->graph),
            "read_edge_list(text) == generated graph");

  remspan::api::IncrementalSession& session = *in.session;
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto t0 = now();
  const auto elapsed = [&] { return std::chrono::duration<double>(now() - t0).count(); };

  // The bulk cycle: the mobility batches forward, then their inverses in
  // reverse order (the movers walk back).
  std::vector<std::vector<remspan::GraphEvent>> cycle = in.bulk.batches;
  for (auto it = in.bulk.batches.rbegin(); it != in.bulk.batches.rend(); ++it) {
    std::vector<remspan::GraphEvent> undo(it->rbegin(), it->rend());
    for (remspan::GraphEvent& e : undo) {
      e.kind = e.kind == remspan::GraphEventKind::kEdgeUp ? remspan::GraphEventKind::kEdgeDown
                                                         : remspan::GraphEventKind::kEdgeUp;
    }
    cycle.push_back(std::move(undo));
  }

  Samples small_ms, bulk_s, bulk_events;
  BatchStats small, bulk;
  ObsTally inc_obs, core_obs;
  // Every applied batch in order, and whether it was a small one.
  std::vector<std::pair<const std::vector<remspan::GraphEvent>*, bool>> history;
  // One batch through the session as one operation of `phase`.
  const auto apply = [&](const char* phase, std::size_t index,
                         const std::vector<remspan::GraphEvent>& batch, BatchStats& ps,
                         ObsTally& tally) {
    const bool traced = tr.records_op(index);
    if (cfg.trace) remspan::api::enable_observability(traced, traced);
    tr.begin_op(phase, traced);
    auto op = tr.span("bench", std::string(phase) + " batch");
    const remspan::obs::Snapshot before = traced ? obs_counters() : remspan::obs::Snapshot{};
    auto s = tr.span("dynamic", "api.IncrementalSession.apply_batch");
    const remspan::ChurnBatchStats st = session.apply_batch(batch);
    const double dt = s.stop();
    ps.add(st, dt);
    if (traced) tally.add(obs_counters(), before);
    history.emplace_back(&batch, &ps == &small);
    ++out.attempted;
    return std::pair{traced, dt};
  };

  // Blocks of small and bulk batches alternate until the measuring time is
  // used, so both phases sample the whole run.
  std::size_t small_done = 0, bulk_done = 0;
  while (small_done < in.small.batches.size()) {
    for (std::size_t j = 0; j < kSmallPerBlock && small_done < in.small.batches.size();
         ++j, ++small_done) {
      const auto [traced, dt] =
          apply("small", small_done, in.small.batches[small_done], small, inc_obs);
      small_ms.add(traced, dt * 1e3);
    }
    for (std::size_t j = 0; j < kBulkPerBlock; ++j, ++bulk_done) {
      const auto& batch = cycle[bulk_done % cycle.size()];
      const auto [traced, dt] = apply("bulk", bulk_done, batch, bulk, core_obs);
      bulk_s.add(traced, dt);
      bulk_events.add(traced, static_cast<double>(batch.size()));
    }
    if (small_done >= min_small && bulk_done >= cycle.size() && elapsed() >= cfg.seconds) break;
  }
  if (cfg.trace) remspan::api::disable_observability();
  std::cout << "churn-local: " << small_done << " small + " << bulk_done
            << " bulk batches in " << elapsed() << " s\n";
  std::cout << "churn-local: small batch ms " << describe(small_ms.untraced()) << "\n";
  ctx.meta["churn.small_batches"] = std::to_string(small_done);
  ctx.meta["churn.bulk_batches"] = std::to_string(bulk_done);

  // Shadow (traced run only): the fixed per-batch passes of the small
  // batches, timed one by one on a DynamicGraph fed the same batch sequence
  // from the same start.
  if (cfg.trace) {
    tr.begin_op("shadow");
    const remspan::Dist radius = remspan::api::incremental_config(spec).dirty_radius();
    remspan::DynamicGraph shadow(in.graph);
    std::shared_ptr<const Graph> prev = shadow.snapshot();
    remspan::BoundedBfs bfs(in.graph.num_nodes());
    std::vector<std::uint8_t> flag;
    std::vector<double> apply_snap, diff, dirty;
    for (const auto& [batch, is_small] : history) {
      if (!is_small) {
        shadow.apply_all(*batch);
        prev = shadow.snapshot();
        continue;
      }
      auto a = tr.span("dynamic", "dynamic.apply_all+snapshot");
      shadow.apply_all(*batch);
      std::shared_ptr<const Graph> next = shadow.snapshot();
      apply_snap.push_back(a.stop());
      auto d = tr.span("dynamic", "dynamic.diff_graphs");
      const remspan::GraphDelta delta = remspan::diff_graphs(*prev, *next);
      diff.push_back(d.stop());
      auto c = tr.span("dynamic", "dynamic.collect_dirty_roots");
      (void)remspan::collect_dirty_roots_split(
          *prev, *next, remspan::removed_endpoints(delta), remspan::inserted_endpoints(delta),
          radius, bfs, flag);
      dirty.push_back(c.stop());
      prev = std::move(next);
    }
    m.set("dynamic.graph_apply_snapshot_s", median(apply_snap));
    m.set("dynamic.diff_graphs_s", median(diff));
    m.set("dynamic.collect_dirty_roots_s", median(dirty));
    double fixed = 0.0, total = 0.0;
    for (const auto* v : {&apply_snap, &diff, &dirty}) {
      for (const double x : *v) fixed += x;
    }
    for (const double x : small.apply_s) total += x;
    m.set("dynamic.small.fixed_share", total > 0.0 ? fixed / total : 0.0);
  }

  // Check: the maintained spanner equals a from-scratch build, bit for bit.
  tr.begin_op("check");
  auto bs = tr.span("core", std::string("core.build_spanner ") + kSpec);
  const remspan::api::SpannerResult scratch = remspan::api::build_spanner(session.graph(), spec);
  m.set("core.th1.build_s", bs.stop());
  m.set("core.th1.spanner_edges", static_cast<double>(scratch.edges.size()));
  m.set("core.th1.sum_tree_edges", static_cast<double>(scratch.info.sum_tree_edges));
  EdgeSet maintained = session.spanner();
  if (cfg.corrupt == "churn-final") {
    const remspan::EdgeId victim = static_cast<remspan::EdgeId>(session.graph().num_edges() / 2);
    if (maintained.contains(victim)) {
      maintained.remove(victim);
    } else {
      maintained.insert(victim);
    }
  }
  out.check("churn.final_equal", maintained == scratch.edges,
            "session spanner " + std::to_string(maintained.size()) + " edges vs scratch " +
                std::to_string(scratch.edges.size()));
  ++out.attempted;

  // End-to-end (untraced operations only).
  m.set("p50_ms", median(small_ms.untraced()));
  m.set("e2e.p95_ms", percentile(small_ms.all(), 0.95));
  m.set("throughput_per_s", rate(bulk_events.untraced(), bulk_s.untraced()));

  // Per-layer.
  report_geom(m, geom, in.graph);
  m.set("graph.read_edge_list_s", median(load_s));
  m.set("graph.edge_list_bytes", static_cast<double>(in.text_bytes));
  small.report(m, "small");
  bulk.report(m, "bulk");
  for (const char* c : kIncCounters) m.set(c, inc_obs.mean(c));
  for (const char* c : kCoreCounters) m.set(c, core_obs.mean(c));
  if (cfg.trace) {
    m.set("trace.overhead.p50_ms", median(small_ms.traced()) - median(small_ms.untraced()));
    m.set("trace.overhead.throughput_per_s",
          rate(bulk_events.traced(), bulk_s.traced()) - m.get("throughput_per_s"));
  }
}

}  // namespace perfbench
