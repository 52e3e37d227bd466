// Edge cases and failure injection: degenerate graphs, invalid parameters,
// node failures, mid-protocol topology changes.
#include <gtest/gtest.h>

#include "analysis/kconn_oracle.hpp"
#include "analysis/stretch_oracle.hpp"
#include "core/remote_spanner.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "sim/reconvergence.hpp"
#include "sim/routing.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

TEST(Degenerate, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  const EdgeSet h = build_k_connecting_spanner(g, 1);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_TRUE(check_remote_stretch(g, h, Stretch{1, 0}).satisfied);
}

TEST(Degenerate, SingletonGraph) {
  GraphBuilder b(1);
  const Graph g = b.build();
  const EdgeSet h = build_low_stretch_remote_spanner(g, 0.5);
  EXPECT_EQ(h.size(), 0u);
  DomTreeBuilder trees(g);
  const RootedTree t = trees.greedy(0, 2, 0);
  EXPECT_EQ(t.num_edges(), 0u);
}

TEST(Degenerate, SingleEdgeGraph) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  for (const Dist k : {1u, 3u}) {
    const EdgeSet h = build_k_connecting_spanner(g, k);
    // No distance-2 shell exists: the spanner is empty, and that is
    // correct (the pair is adjacent, H_u covers it).
    EXPECT_EQ(h.size(), 0u);
    EXPECT_TRUE(check_remote_stretch(g, h, Stretch{1, 0}).satisfied);
  }
}

TEST(Degenerate, StarGraphAllShellsEmpty) {
  const Graph g = star_graph(8);
  const EdgeSet h = build_2connecting_spanner(g, 2);
  // All non-hub pairs are at distance 2 through the unique hub: every tree
  // must attach the hub edge(s).
  const auto report = check_k_connecting_stretch(g, h, 2, Stretch{2, -1});
  EXPECT_TRUE(report.satisfied);
}

TEST(Degenerate, DisconnectedPairsUnconstrained) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const EdgeSet h = build_k_connecting_spanner(g, 1);
  const auto report = check_remote_stretch(g, h, Stretch{1, 0});
  EXPECT_TRUE(report.satisfied);  // cross-component pairs skipped, not failed
}

TEST(InvalidParams, RejectedLoudly) {
  const Graph g = cycle_graph(5);
  DomTreeBuilder trees(g);
  EXPECT_THROW((void)trees.greedy(0, 1, 0), CheckError);   // r < 2
  EXPECT_THROW((void)trees.mis(0, 1), CheckError);          // r < 2
  EXPECT_THROW((void)trees.greedy_k(0, 0), CheckError);     // k < 1
  EXPECT_THROW((void)trees.mis_k(0, 0), CheckError);        // k < 1
  EXPECT_THROW((void)build_k_connecting_spanner(g, 0), CheckError);
  EXPECT_THROW((void)build_low_stretch_remote_spanner(g, 0.0), CheckError);
  EXPECT_THROW((void)build_low_stretch_remote_spanner(g, 2.0), CheckError);
}

TEST(NodeFailure, SpannerRebuildRestoresGuarantee) {
  // Fail a node, rebuild on the survivor graph: guarantee must hold again.
  Rng rng(911);
  const Graph g = connected_gnp(40, 0.15, rng);
  std::vector<NodeId> keep;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != 7) keep.push_back(v);
  }
  const auto survivor = induced_subgraph(g, keep);
  const auto comps = connected_components(survivor.graph);
  const auto sub = induced_subgraph(survivor.graph, comps.largest());
  const EdgeSet h = build_k_connecting_spanner(sub.graph, 1);
  EXPECT_TRUE(check_remote_stretch(sub.graph, h, Stretch{1, 0}).satisfied);
}

TEST(NodeFailure, TwoConnectingSpannerSurvivesAnySingleRelay) {
  // For every pair with d^2 < inf in H_s, removing ONE internal relay must
  // leave s and t connected within H_s minus the relay.
  Rng rng(913);
  const Graph g = connected_gnp(24, 0.3, rng);
  const EdgeSet h = build_2connecting_spanner(g, 2);
  int pairs_checked = 0;
  for (NodeId s = 0; s < g.num_nodes() && pairs_checked < 8; s += 3) {
    for (NodeId t = 1; t < g.num_nodes() && pairs_checked < 8; t += 5) {
      if (s == t || g.has_edge(s, t)) continue;
      const auto in_h =
          min_disjoint_paths(AugmentedView(h, s), s, t, 2, /*want_paths=*/true);
      if (in_h.connectivity() < 2) continue;
      ++pairs_checked;
      // Fail the first relay of the first path: the second path survives by
      // disjointness.
      ASSERT_GE(in_h.paths[0].size(), 3u);
      const NodeId failed = in_h.paths[0][1];
      bool second_path_avoids = true;
      for (std::size_t i = 1; i + 1 < in_h.paths[1].size(); ++i) {
        if (in_h.paths[1][i] == failed) second_path_avoids = false;
      }
      EXPECT_TRUE(second_path_avoids);
    }
  }
  EXPECT_GT(pairs_checked, 0);
}

TEST(TopologyChange, ProtocolConvergesOnNewGraphAfterSwap) {
  // Converge the protocol on g1, then feed the whole g1 -> g2 edge delta as
  // one batch: under either strategy the advertised spanner must match the
  // centralized construction for g2.
  const Graph g1 = cycle_graph(16);
  Rng rng(915);
  const Graph g2 = connected_gnp(16, 0.3, rng);
  std::vector<GraphEvent> swap;
  for (const Edge& e : g1.edges()) {
    if (!g2.has_edge(e.u, e.v)) swap.push_back(GraphEvent::edge_down(e.u, e.v));
  }
  for (const Edge& e : g2.edges()) {
    if (!g1.has_edge(e.u, e.v)) swap.push_back(GraphEvent::edge_up(e.u, e.v));
  }
  ASSERT_FALSE(swap.empty());
  const TreeRule cfg = TreeRule::k_connecting(1);
  const EdgeSet expected = build_k_connecting_spanner(g2, 1);
  for (const auto strategy : {ReconvergeStrategy::kIncremental, ReconvergeStrategy::kFullReflood}) {
    ReconvergenceSim sim(g1, cfg, strategy);
    sim.apply_batch(swap);
    ASSERT_EQ(sim.graph().num_edges(), g2.num_edges()) << strategy_name(strategy);
    EXPECT_EQ(sim.spanner().edge_list(), expected.edge_list()) << strategy_name(strategy);
  }
}

TEST(Routing, SurvivesPartialSpannerGracefully) {
  // Routing over an arbitrarily truncated spanner either delivers or
  // reports failure — never loops forever.
  Rng rng(917);
  const Graph g = connected_gnp(30, 0.15, rng);
  EdgeSet h = build_k_connecting_spanner(g, 1);
  // Remove half the spanner's edges.
  int counter = 0;
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (h.contains(id) && (counter++ % 2 == 0)) h.erase(id);
  }
  for (NodeId t = 1; t < g.num_nodes(); t += 4) {
    const auto route = greedy_route(h, 0, t);
    EXPECT_LE(route.path.size(), static_cast<std::size_t>(g.num_nodes()) + 2);
  }
}

TEST(Oracle, StretchReportCountsArePlausible) {
  Rng rng(919);
  const Graph g = connected_gnp(20, 0.25, rng);
  const EdgeSet h(g, true);
  const auto report = check_remote_stretch(g, h, Stretch{1, 0});
  // Checked pairs = ordered nonadjacent connected pairs.
  std::size_t expected = 0;
  const DistanceMatrix dg = all_pairs_distances(GraphView(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u != v && dg(u, v) != kUnreachable && dg(u, v) >= 2) ++expected;
    }
  }
  EXPECT_EQ(report.pairs_checked, expected);
}

}  // namespace
}  // namespace remspan
