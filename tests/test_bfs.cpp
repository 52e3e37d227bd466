// BFS over the three views (G, H, H_u) and bounded-depth behaviour.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "geom/synthetic.hpp"
#include "graph/bfs.hpp"
#include "graph/distances.hpp"
#include "graph/edge_set.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

TEST(BoundedBfs, PathDistances) {
  const Graph g = path_graph(6);
  BoundedBfs bfs(6);
  bfs.run(GraphView(g), 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(bfs.dist(v), v);
}

TEST(BoundedBfs, DepthBoundRespected) {
  const Graph g = path_graph(10);
  BoundedBfs bfs(10);
  bfs.run(GraphView(g), 0, 3);
  EXPECT_EQ(bfs.dist(3), 3u);
  EXPECT_EQ(bfs.dist(4), kUnreachable);
  EXPECT_FALSE(bfs.reached(9));
  EXPECT_EQ(bfs.order().size(), 4u);
}

TEST(BoundedBfs, ReusableAcrossRuns) {
  const Graph g = cycle_graph(8);
  BoundedBfs bfs(8);
  bfs.run(GraphView(g), 0);
  EXPECT_EQ(bfs.dist(4), 4u);
  bfs.run(GraphView(g), 4, 1);
  EXPECT_EQ(bfs.dist(4), 0u);
  EXPECT_EQ(bfs.dist(3), 1u);
  EXPECT_EQ(bfs.dist(0), kUnreachable);  // stale state must be gone
}

TEST(BoundedBfs, ParentChainsTraceShortestPaths) {
  const Graph g = grid_graph(5, 5);
  BoundedBfs bfs(g.num_nodes());
  bfs.run(GraphView(g), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Walking parents from v must reach the source in exactly dist(v) hops.
    NodeId cur = v;
    Dist steps = 0;
    while (cur != 0) {
      cur = bfs.parent(cur);
      ASSERT_NE(cur, kInvalidNode);
      ++steps;
    }
    EXPECT_EQ(steps, bfs.dist(v));
  }
}

TEST(BoundedBfs, OrderHasNonDecreasingDistance) {
  Rng rng(5);
  const Graph g = gnp(50, 0.1, rng);
  BoundedBfs bfs(50);
  bfs.run(GraphView(g), 0);
  for (std::size_t i = 1; i < bfs.order().size(); ++i) {
    EXPECT_LE(bfs.dist(bfs.order()[i - 1]), bfs.dist(bfs.order()[i]));
  }
}

TEST(BoundedBfs, ShellsPartitionTheBall) {
  Rng rng(41);
  const Graph g = connected_gnp(60, 0.08, rng);
  BoundedBfs bfs(g.num_nodes());
  for (const Dist depth : {Dist{2}, Dist{4}, kUnreachable}) {
    bfs.run(GraphView(g), 7, depth);
    // Every shell is the exact contiguous slice of the order at distance d,
    // and concatenating the shells reproduces the full visit order.
    std::size_t total = 0;
    for (Dist d = 0; d < bfs.num_shells(); ++d) {
      const auto sh = bfs.shell(d);
      for (const NodeId v : sh) EXPECT_EQ(bfs.dist(v), d);
      EXPECT_EQ(sh.data(), bfs.order().data() + total);
      total += sh.size();
    }
    EXPECT_EQ(total, bfs.order().size());
    EXPECT_FALSE(bfs.shell(0).empty());
    EXPECT_TRUE(bfs.shell(bfs.num_shells()).empty());
    EXPECT_TRUE(bfs.shell(kUnreachable).empty());
  }
}

TEST(BoundedBfs, ShellOffsetsResetBetweenRuns) {
  const Graph g = path_graph(10);
  BoundedBfs bfs(10);
  bfs.run(GraphView(g), 0);
  EXPECT_EQ(bfs.num_shells(), 10u);
  bfs.run(GraphView(g), 9, 2);
  EXPECT_EQ(bfs.num_shells(), 3u);
  EXPECT_EQ(bfs.shell(2).size(), 1u);
  EXPECT_EQ(bfs.shell(2)[0], 7u);
  EXPECT_TRUE(bfs.shell(3).empty());
}

/// The reused BFS must read exactly like a fresh instance after every run:
/// the same order and shells, the same per-node answers inside the ball,
/// and the unreached answers everywhere outside it (a stale slot left by
/// an earlier ball would surface here).
void expect_matches_fresh(const Graph& g, const BoundedBfs& reused,
                          std::span<const NodeId> sources, Dist depth) {
  BoundedBfs fresh(g.num_nodes());
  fresh.run_multi(GraphView(g), sources, depth);
  ASSERT_EQ(reused.order(), fresh.order());
  ASSERT_EQ(reused.num_shells(), fresh.num_shells());
  for (Dist d = 0; d <= fresh.num_shells(); ++d) {
    const auto got = reused.shell(d);
    const auto want = fresh.shell(d);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << "shell " << d;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!fresh.reached(v)) {
      EXPECT_FALSE(reused.reached(v)) << v;
      EXPECT_EQ(reused.slot(v), 0u) << v;
      EXPECT_EQ(reused.dist(v), kUnreachable) << v;
      EXPECT_EQ(reused.parent(v), kInvalidNode) << v;
      EXPECT_EQ(reused.parent_edge(v), kInvalidEdge) << v;
      continue;
    }
    ASSERT_NE(reused.slot(v), 0u) << v;
    EXPECT_EQ(reused.order()[reused.slot(v) - 1], v);
    EXPECT_EQ(reused.dist(v), fresh.dist(v)) << v;
    EXPECT_EQ(reused.parent(v), fresh.parent(v)) << v;
    EXPECT_EQ(reused.parent_edge(v), fresh.parent_edge(v)) << v;
  }
}

TEST(BoundedBfs, ReuseMatchesFreshAcrossOverlappingAndDisjointBalls) {
  // 10x10 grid: balls of radius 3 around 0 and 11 overlap, the radius-2
  // ball around the far corner 99 is disjoint from both, and the last
  // multi-source run repeats sources (duplicates must collapse).
  const Graph g = grid_graph(10, 10);
  BoundedBfs bfs(g.num_nodes());
  struct Run {
    std::vector<NodeId> sources;
    Dist depth;
  };
  const std::vector<Run> runs = {
      {{0}, 3},          {{11}, 3},        {{99}, 2},          {{55, 12, 55, 12, 87}, 2},
      {{44}, 1},         {{0}, kUnreachable}, {{99, 99}, 0},   {{3}, 4},
  };
  for (const Run& run : runs) {
    bfs.run_multi(GraphView(g), run.sources, run.depth);
    SCOPED_TRACE(::testing::Message() << "source " << run.sources.front() << " depth "
                                      << run.depth);
    expect_matches_fresh(g, bfs, run.sources, run.depth);
  }
}

TEST(SubgraphView, EmptySubgraphDisconnects) {
  const Graph g = path_graph(4);
  const EdgeSet h(g);  // no edges selected
  EXPECT_EQ(bfs_distance(SubgraphView(h), 0, 3), kUnreachable);
}

TEST(SubgraphView, PartialSubgraphDistances) {
  const Graph g = cycle_graph(6);
  EdgeSet h(g);
  // Keep only the path 0-1-2-3-4-5 (drop the closing edge 5-0).
  for (NodeId v = 1; v < 6; ++v) h.insert(v - 1, v);
  EXPECT_EQ(bfs_distance(SubgraphView(h), 0, 5), 5u);
  EXPECT_EQ(bfs_distance(GraphView(g), 0, 5), 1u);
}

TEST(AugmentedView, CenterGetsAllItsEdges) {
  const Graph g = cycle_graph(6);
  const EdgeSet h(g);  // empty spanner
  // H_0 = star of node 0: nodes 1 and 5 at distance 1, others unreachable.
  const AugmentedView view(h, 0);
  const auto dist = bfs_distances(view, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[5], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(AugmentedView, SymmetricFromNeighborSide) {
  const Graph g = path_graph(3);
  const EdgeSet h(g);  // empty
  // From node 1 (a G-neighbor of center 0), center must be visible.
  const AugmentedView view(h, 0);
  const auto dist = bfs_distances(view, 1);
  EXPECT_EQ(dist[0], 1u);
  EXPECT_EQ(dist[2], kUnreachable);  // edge 1-2 is neither in H nor incident to 0
}

TEST(AugmentedView, CombinesSpannerAndStar) {
  // G = path 0-1-2-3; H = {2-3}. In H_0: 0-1 (star), 1-2 missing, so 3 is
  // reachable only if 1-2 in H. Check both ways.
  const Graph g = path_graph(4);
  EdgeSet h(g);
  h.insert(2, 3);
  EXPECT_EQ(bfs_distance(AugmentedView(h, 0), 0, 3), kUnreachable);
  h.insert(1, 2);
  EXPECT_EQ(bfs_distance(AugmentedView(h, 0), 0, 3), 3u);
}

TEST(AugmentedView, NoDuplicateNeighborEnumeration) {
  // Edge (0,1) present in H and incident to center 0: the view must not
  // enumerate node 1 twice from 0, or 0 twice from 1.
  const Graph g = path_graph(3);
  EdgeSet h(g, true);
  const AugmentedView view(h, 0);
  int count = 0;
  view.for_each_neighbor(1, [&](NodeId v) {
    if (v == 0) ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(AllPairsDistances, MatchesPerSourceBfs) {
  Rng rng(9);
  const Graph g = gnp(40, 0.15, rng);
  const DistanceMatrix dm = all_pairs_distances(GraphView(g));
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    const auto row = bfs_distances(GraphView(g), u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(dm(u, v), row[v]);
  }
}

TEST(AllPairsDistances, SymmetricOnUndirectedGraphs) {
  Rng rng(10);
  const Graph g = gnp(35, 0.12, rng);
  const DistanceMatrix dm = all_pairs_distances(GraphView(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(dm(u, v), dm(v, u));
  }
}

TEST(Distances, DiameterOfCycle) {
  const Graph g = cycle_graph(10);
  const DistanceMatrix dm = all_pairs_distances(GraphView(g));
  EXPECT_EQ(diameter(dm), 5u);
  EXPECT_EQ(eccentricity(dm.row(0)), 5u);
}

}  // namespace
}  // namespace remspan
