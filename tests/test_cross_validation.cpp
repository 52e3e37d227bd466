// Cross-validation sweeps: independent implementations must agree, and
// structural monotonicity/convexity invariants must hold on randomized
// inputs (seeded, parameterized over graph families).
#include <gtest/gtest.h>

#include "analysis/stretch_oracle.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/edge_disjoint_paths.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph largest_component_of(const Graph& g) {
  const auto comps = connected_components(g);
  if (comps.count <= 1) return g;
  return induced_subgraph(g, comps.largest()).graph;
}

Graph fuzz_graph(std::uint64_t seed) {
  Rng rng(seed);
  switch (seed % 5) {
    case 0:
      return connected_gnp(static_cast<NodeId>(30 + seed % 17), 0.18, rng);
    case 1: {
      const auto gg = uniform_unit_ball_graph(50 + seed % 20, 4.0, 2, rng);
      return largest_component_of(gg.graph);
    }
    case 2:
      return largest_component_of(barabasi_albert(40, 2, rng));
    case 3:
      return largest_component_of(watts_strogatz(40, 4, 0.2, rng));
    default:
      return connected_gnp(25, 0.3, rng);
  }
}

class CrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossValidation, FlowD1EqualsBfsDistance) {
  const Graph g = fuzz_graph(GetParam());
  Rng rng(GetParam() * 7 + 1);
  for (int i = 0; i < 12; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    if (s == t) continue;
    const Dist bfs_d = bfs_distance(GraphView(g), s, t);
    const auto node_flow = min_disjoint_paths(GraphView(g), s, t, 1);
    const auto edge_flow = min_edge_disjoint_paths(GraphView(g), s, t, 1);
    if (bfs_d == kUnreachable) {
      EXPECT_EQ(node_flow.connectivity(), 0u);
      EXPECT_EQ(edge_flow.connectivity(), 0u);
    } else {
      EXPECT_EQ(node_flow.d(1), bfs_d) << "s=" << s << " t=" << t;
      EXPECT_EQ(edge_flow.d(1), bfs_d) << "s=" << s << " t=" << t;
    }
  }
}

TEST_P(CrossValidation, UnitPathCostsAreConvex) {
  // Successive shortest paths yield non-decreasing unit costs, so d^k is
  // convex in k: d^{k+1} - d^k >= d^k - d^{k-1}.
  const Graph g = fuzz_graph(GetParam());
  Rng rng(GetParam() * 11 + 3);
  for (int i = 0; i < 6; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    if (s == t) continue;
    const auto r = min_disjoint_paths(GraphView(g), s, t, 5);
    for (Dist k = 2; k <= r.connectivity(); ++k) {
      const auto inc_prev = r.d(k) - r.d(k - 1);
      const auto inc_prev2 = k >= 3 ? r.d(k - 1) - r.d(k - 2) : 0;
      if (k >= 3) {
        EXPECT_GE(inc_prev, inc_prev2);
      }
      EXPECT_GE(inc_prev, r.d(1));  // every path is at least a shortest path
    }
  }
}

TEST_P(CrossValidation, RemoteDistancesSandwichedByGAndH) {
  const Graph g = fuzz_graph(GetParam());
  const EdgeSet h = build_low_stretch_remote_spanner(g, 0.5);
  const DistanceMatrix dg = all_pairs_distances(GraphView(g));
  const DistanceMatrix dh = all_pairs_distances(SubgraphView(h));
  const DistanceMatrix dhu = remote_distances(g, h);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      // G <= H_u <= H (more edges can only shorten paths).
      EXPECT_LE(dg(u, v), dhu(u, v));
      EXPECT_LE(dhu(u, v), dh(u, v));
    }
  }
}

TEST_P(CrossValidation, AddingEdgesNeverHurtsRemoteDistances) {
  const Graph g = fuzz_graph(GetParam());
  EdgeSet sparse = build_k_connecting_spanner(g, 1);
  EdgeSet denser = sparse;
  // Add every 3rd missing edge.
  int counter = 0;
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (!sparse.contains(id) && (counter++ % 3 == 0)) denser.insert(id);
  }
  const DistanceMatrix a = remote_distances(g, sparse);
  const DistanceMatrix b = remote_distances(g, denser);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(b(u, v), a(u, v));
    }
  }
}

TEST_P(CrossValidation, SpannerBuildersAreDeterministic) {
  const Graph g = fuzz_graph(GetParam());
  EXPECT_EQ(build_k_connecting_spanner(g, 2), build_k_connecting_spanner(g, 2));
  EXPECT_EQ(build_low_stretch_remote_spanner(g, 0.5),
            build_low_stretch_remote_spanner(g, 0.5));
  EXPECT_EQ(build_2connecting_spanner(g, 2), build_2connecting_spanner(g, 2));
}

TEST_P(CrossValidation, DistributedProtocolIsDeterministic) {
  const Graph g = fuzz_graph(GetParam());
  const TreeRule cfg = TreeRule::k_connecting(2);
  const auto run1 = run_remspan_distributed(g, cfg);
  const auto run2 = run_remspan_distributed(g, cfg);
  EXPECT_EQ(run1.spanner, run2.spanner);
  EXPECT_EQ(run1.rounds, run2.rounds);
  EXPECT_EQ(run1.stats.transmissions, run2.stats.transmissions);
}

TEST_P(CrossValidation, LargerRadiusTreesKeepSmallerRadiusProperty) {
  const Graph g = fuzz_graph(GetParam());
  DomTreeBuilder builder(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    const RootedTree t = builder.greedy(u, 4, 1);
    // An (r,beta)-dominating tree dominates every smaller radius too.
    EXPECT_TRUE(is_dominating_tree(g, t, 3, 1));
    EXPECT_TRUE(is_dominating_tree(g, t, 2, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace remspan
