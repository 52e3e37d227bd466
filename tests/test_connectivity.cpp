// Components, induced subgraphs and pairwise vertex connectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/edge_set.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

TEST(Connectivity, SingleNodeIsConnected) {
  GraphBuilder b(1);
  EXPECT_TRUE(is_connected(b.build()));
}

TEST(Connectivity, EmptyGraphIsConnected) {
  GraphBuilder b(0);
  EXPECT_TRUE(is_connected(b.build()));
}

TEST(Connectivity, TwoIsolatedNodesAreNot) {
  GraphBuilder b(2);
  EXPECT_FALSE(is_connected(b.build()));
}

TEST(Connectivity, EdgeSetComponents) {
  const Graph g = cycle_graph(6);
  EdgeSet h(g);
  h.insert(0, 1);
  h.insert(3, 4);
  const Components comps = connected_components(h);
  // {0,1}, {3,4}, {2}, {5} -> 4 components.
  EXPECT_EQ(comps.count, 4u);
}

TEST(Connectivity, CompleteGraphConnectivity) {
  const Graph g = complete_graph(7);
  // Menger: between adjacent nodes of K_n, n-1 disjoint paths (1 direct +
  // n-2 through the others).
  EXPECT_EQ(vertex_connectivity(g, 0, 6), 6u);
}

TEST(Connectivity, CycleIsTwoConnected) {
  const Graph g = cycle_graph(9);
  EXPECT_EQ(vertex_connectivity(g, 0, 4), 2u);
  EXPECT_EQ(vertex_connectivity(g, 0, 1), 2u);
}

TEST(Connectivity, TreeIsOneConnected) {
  Rng rng(41);
  const Graph g = random_tree(30, rng);
  EXPECT_EQ(vertex_connectivity(g, 0, 29 % 30), 1u);
}

TEST(Connectivity, GridInteriorConnectivity) {
  const Graph g = grid_graph(5, 5);
  // Opposite corners of a grid: 2 disjoint paths (along the two sides).
  EXPECT_EQ(vertex_connectivity(g, 0, 24), 2u);
}

TEST(Connectivity, MatchesDisjointPathOracleOnRandomGraphs) {
  Rng rng(43);
  for (int rep = 0; rep < 4; ++rep) {
    const Graph g = connected_gnp(25, 0.2, rng);
    for (NodeId s = 0; s < 5; ++s) {
      for (NodeId t = 10; t < 13; ++t) {
        const Dist conn = vertex_connectivity(g, s, t);
        const auto result = min_disjoint_paths(GraphView(g), s, t, conn + 2);
        EXPECT_EQ(result.connectivity(), conn);
      }
    }
  }
}

TEST(Connectivity, LargestComponentExtraction) {
  Rng rng(45);
  // Sparse G(n,p) below the connectivity threshold usually splits.
  const Graph g = gnp(100, 0.015, rng);
  const Components comps = connected_components(g);
  const auto keep = comps.largest();
  const auto sub = induced_subgraph(g, keep);
  EXPECT_TRUE(is_connected(sub.graph));
  EXPECT_EQ(sub.graph.num_nodes(), keep.size());
}

TEST(Connectivity, InducedSubgraphRemapsAndValidatesKeep) {
  // Path 0-1-2-3-4 plus the chord 1-3; keeping {1, 3, 4} maps 1->0, 3->1,
  // 4->2 and keeps exactly the edges among them.
  GraphBuilder b(5);
  for (const auto& [u, v] : {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}}) {
    b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  const Graph g = b.build();
  const auto sub = induced_subgraph(g, {1, 3, 4});
  const std::vector<Edge> want{{0, 1}, {1, 2}};
  EXPECT_TRUE(std::equal(sub.graph.edges().begin(), sub.graph.edges().end(), want.begin(),
                         want.end()));
  EXPECT_EQ(sub.original_id, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_THROW((void)induced_subgraph(g, {3, 1}), CheckError);  // unsorted
  EXPECT_THROW((void)induced_subgraph(g, {1, 1}), CheckError);  // duplicate
  EXPECT_THROW((void)induced_subgraph(g, {1, 5}), CheckError);  // not a node of g
}

}  // namespace
}  // namespace remspan
