// Baseline spanner constructions: greedy (t,0), Baswana-Sen, OLSR MPR,
#include <queue>
// layered fault-tolerant geometric.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/stretch_oracle.hpp"
#include "baseline/baswana_sen.hpp"
#include "baseline/greedy_spanner.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph connected_random(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  return connected_gnp(n, p, rng);
}

TEST(GreedySpanner, StretchGuaranteeHolds) {
  for (const double t : {1.0, 3.0, 5.0}) {
    const Graph g = connected_random(35, 0.15, 701);
    const EdgeSet h = greedy_spanner(g, t);
    const auto report = check_spanner_stretch(g, h, Stretch{t, 0.0});
    EXPECT_TRUE(report.satisfied) << "t=" << t;
  }
}

TEST(GreedySpanner, StretchOneKeepsAllEdges) {
  const Graph g = connected_random(25, 0.2, 703);
  const EdgeSet h = greedy_spanner(g, 1.0);
  EXPECT_EQ(h.size(), g.num_edges());
}

TEST(GreedySpanner, GirthPropertySparsifies) {
  // A (3,0)-greedy spanner of a dense graph has girth > 4, hence
  // O(n^{3/2}) edges; just check substantial sparsification.
  const Graph g = connected_random(60, 0.4, 705);
  const EdgeSet h = greedy_spanner(g, 3.0);
  EXPECT_LT(h.size(), g.num_edges() / 2);
}

TEST(GreedySpanner, SpannerIsRemoteSpannerWithShift) {
  // Section 1.2: an (alpha,beta)-spanner is an (alpha, beta-alpha+1)-
  // remote-spanner.
  const Graph g = connected_random(30, 0.2, 707);
  for (const double t : {3.0, 5.0}) {
    const EdgeSet h = greedy_spanner(g, t);
    const auto report = check_remote_stretch(g, h, Stretch{t, 1.0 - t});
    EXPECT_TRUE(report.satisfied) << "t=" << t;
  }
}

/// Weighted single-source distances over a subset of a geometric graph's
/// edges (test-local reference implementation).
std::vector<double> dijkstra_ref(const GeometricGraph& gg, const EdgeSet& h, NodeId src) {
  const Graph& g = gg.graph;
  std::vector<double> dist(g.num_nodes(), std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    h.for_each_neighbor(u, [&, u = u, d = d](NodeId v) {
      const double w = gg.edge_length(make_edge(u, v));
      if (d + w < dist[v]) {
        dist[v] = d + w;
        heap.emplace(dist[v], v);
      }
    });
  }
  return dist;
}

TEST(GreedySpannerWeighted, StretchHoldsInMetricLengths) {
  Rng rng(709);
  const auto gg = uniform_unit_ball_graph(60, 4.0, 2, rng);
  const double t = 1.5;
  const EdgeSet h = greedy_spanner_weighted(gg, t);
  const EdgeSet full(gg.graph, true);
  for (NodeId src = 0; src < gg.graph.num_nodes(); src += 5) {
    const auto dh = dijkstra_ref(gg, h, src);
    const auto dg = dijkstra_ref(gg, full, src);
    for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
      if (std::isinf(dg[v])) continue;
      EXPECT_LE(dh[v], t * dg[v] + 1e-9) << "src=" << src << " v=" << v;
    }
  }
  EXPECT_LE(h.size(), gg.graph.num_edges());
}

TEST(BaswanaSen, StretchGuaranteeAcrossK) {
  Rng rng(711);
  for (const Dist k : {1u, 2u, 3u}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Graph g = connected_random(40, 0.2, 713 + static_cast<std::uint64_t>(rep));
      const EdgeSet h = baswana_sen_spanner(g, k, rng);
      const auto report =
          check_spanner_stretch(g, h, Stretch{2.0 * k - 1.0, 0.0});
      EXPECT_TRUE(report.satisfied)
          << "k=" << k << " rep=" << rep << " worst=(" << report.worst_u << ","
          << report.worst_v << ")";
    }
  }
}

TEST(BaswanaSen, K1KeepsEverything) {
  Rng rng(715);
  const Graph g = connected_random(20, 0.3, 717);
  EXPECT_EQ(baswana_sen_spanner(g, 1, rng).size(), g.num_edges());
}

TEST(BaswanaSen, SparsifiesDenseGraphs) {
  Rng rng(719);
  const Graph g = connected_random(150, 0.3, 721);  // ~3300 edges
  const EdgeSet h = baswana_sen_spanner(g, 2, rng);
  // O(k n^{3/2}) ~ 2 * 1837 for n=150; allow generous slack but demand
  // real sparsification.
  EXPECT_LT(h.size(), g.num_edges());
  EXPECT_LT(h.size(), 5u * static_cast<std::size_t>(std::pow(150.0, 1.5)));
}

TEST(BaswanaSen, PreservesConnectivity) {
  Rng rng(723);
  const Graph g = connected_random(50, 0.15, 725);
  for (const Dist k : {2u, 3u, 4u}) {
    const EdgeSet h = baswana_sen_spanner(g, k, rng);
    EXPECT_EQ(connected_components(h).count, 1u) << "k=" << k;
  }
}

TEST(OlsrMpr, CoversAllTwoHopNodes) {
  Rng rng(727);
  const Graph g = connected_random(40, 0.12, 729);
  DomTreeBuilder builder(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    const RootedTree star = builder.mpr(u);
    std::vector<NodeId> mpr;
    for (const NodeId m : star.nodes()) {
      if (m == u) continue;
      EXPECT_EQ(star.parent(m), u) << "u=" << u << " m=" << m;  // a star: depth 1 only
      mpr.push_back(m);
    }
    // Every strict 2-hop node of u must have a neighbor among the MPRs.
    const auto dist = bfs_distances(GraphView(g), u, 2);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] != 2) continue;
      bool covered = false;
      for (const NodeId m : mpr) {
        if (g.has_edge(m, v)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "u=" << u << " v=" << v;
    }
  }
}

TEST(OlsrMpr, UnionIsOneZeroRemoteSpanner) {
  // The paper's Section 1.2 claim: multipoint relays form a
  // (1,0)-remote-spanner.
  Rng rng(731);
  for (int rep = 0; rep < 3; ++rep) {
    const Graph g = connected_random(35, 0.15, 733 + static_cast<std::uint64_t>(rep));
    const EdgeSet h = olsr_mpr_spanner(g);
    const auto report = check_remote_stretch(g, h, Stretch{1.0, 0.0});
    EXPECT_TRUE(report.satisfied) << "rep=" << rep;
  }
}

TEST(OlsrMpr, ComparableSizeToDomTreeGreedyK1) {
  // Two heuristics for the same object; sizes should be in the same
  // ballpark (within 2x either way on random graphs).
  const Graph g = connected_random(60, 0.15, 735);
  const std::size_t mpr_edges = olsr_mpr_spanner(g).size();
  const std::size_t gdy_edges = build_k_connecting_spanner(g, 1).size();
  EXPECT_LT(mpr_edges, 2 * gdy_edges + 10);
  EXPECT_LT(gdy_edges, 2 * mpr_edges + 10);
}

TEST(LayeredFaultTolerant, MoreLayersMoreEdges) {
  Rng rng(737);
  const auto gg = uniform_unit_ball_graph(70, 3.5, 2, rng);
  std::size_t prev = 0;
  for (const Dist k : {0u, 1u, 2u}) {
    const EdgeSet h = layered_fault_tolerant_spanner(gg, 1.5, k);
    EXPECT_GE(h.size(), prev) << "k=" << k;
    prev = h.size();
  }
}

TEST(LayeredFaultTolerant, LayerZeroEqualsGreedy) {
  Rng rng(739);
  const auto gg = uniform_unit_ball_graph(50, 3.5, 2, rng);
  const EdgeSet a = layered_fault_tolerant_spanner(gg, 1.4, 0);
  const EdgeSet b = greedy_spanner_weighted(gg, 1.4);
  EXPECT_EQ(a, b);
}

TEST(LayeredFaultTolerant, SurvivesSingleNodeFailure) {
  // Remove one random non-cut node: the remaining layered spanner keeps the
  // surviving graph connected (the practical fault-tolerance property).
  Rng rng(741);
  const auto gg = uniform_unit_ball_graph(60, 3.0, 2, rng);
  const auto comps = connected_components(gg.graph);
  if (comps.count != 1) GTEST_SKIP() << "disconnected sample";
  const EdgeSet h = layered_fault_tolerant_spanner(gg, 1.5, 1);
  // Knock out node 0; compare components of h-minus-0 and g-minus-0.
  std::vector<NodeId> keep;
  for (NodeId v = 1; v < gg.graph.num_nodes(); ++v) keep.push_back(v);
  const auto sub_g = induced_subgraph(gg.graph, keep);
  // Build the h-edge subgraph among kept nodes.
  GraphBuilder hb(static_cast<NodeId>(keep.size()));
  for (const Edge& e : h.edge_list()) {
    if (e.u == 0 || e.v == 0) continue;
    hb.add_edge(e.u - 1, e.v - 1);
  }
  const Graph h_sub = hb.build();
  EXPECT_EQ(connected_components(h_sub).count, connected_components(sub_g.graph).count);
}

}  // namespace
}  // namespace remspan
