// Graph/GraphBuilder: CSR construction, edge ids, lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/graph.hpp"
#include "support/serial_csr.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder builder(0);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, SingleEdge) {
  GraphBuilder builder(2);
  builder.add_edge(1, 0);  // reversed input is canonicalized
  const Graph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(0).v, 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(GraphBuilder, DuplicatesMerged) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilder, SelfLoopRejected) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(1, 1), CheckError);
}

TEST(GraphBuilder, OutOfRangeRejected) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(0, 3), CheckError);
}

TEST(Graph, AdjacencySorted) {
  GraphBuilder builder(5);
  builder.add_edge(2, 4);
  builder.add_edge(2, 0);
  builder.add_edge(2, 3);
  builder.add_edge(2, 1);
  const Graph g = builder.build();
  const auto nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(g.degree(2), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(Graph, IncidentEdgeIdsMatchNeighbors) {
  Rng rng(7);
  const Graph g = gnp(40, 0.2, rng);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ids = g.incident_edges(u);
    ASSERT_EQ(nbrs.size(), ids.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Edge& e = g.edge(ids[i]);
      EXPECT_EQ(make_edge(u, nbrs[i]), e);
    }
  }
}

TEST(Graph, FindEdgeAgreesWithEdgeList) {
  Rng rng(11);
  const Graph g = gnp(30, 0.3, rng);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    EXPECT_EQ(g.find_edge(e.u, e.v), id);
    EXPECT_EQ(g.find_edge(e.v, e.u), id);
  }
  EXPECT_EQ(g.find_edge(0, 0), kInvalidEdge);
}

TEST(Graph, FindEdgeMissing) {
  const Graph g = path_graph(4);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
}

TEST(Graph, DegreeSumIsTwiceEdges) {
  Rng rng(3);
  const Graph g = gnp(60, 0.1, rng);
  std::size_t degree_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) degree_sum += g.degree(u);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
  EXPECT_DOUBLE_EQ(g.average_degree(),
                   static_cast<double>(degree_sum) / static_cast<double>(g.num_nodes()));
}

TEST(Graph, OverflowGuardsRejectSentinelSizedUniverses) {
  // NodeId/EdgeId are 32-bit with all-ones sentinels (kInvalidNode,
  // kInvalidEdge): a universe whose count reaches the sentinel would make
  // real ids collide with "no node"/"no edge". The guard is pure counting
  // math, so the death-test exercises it directly — materializing a 2^32
  // node graph to trip it through from_canonical_edges is neither possible
  // nor necessary.
  detail::check_graph_limits(0, 0);  // empty universe is fine
  detail::check_graph_limits(kInvalidNode - 1, kInvalidEdge - 1);  // largest legal
  EXPECT_THROW(detail::check_graph_limits(kInvalidNode, 0), CheckError);
  EXPECT_THROW(detail::check_graph_limits(std::size_t{kInvalidNode} + 1, 0), CheckError);
  EXPECT_THROW(detail::check_graph_limits(0, kInvalidEdge), CheckError);
  EXPECT_THROW(detail::check_graph_limits(0, std::size_t{kInvalidEdge} + 7), CheckError);
}

TEST(Graph, NodeBudgetRejectsIdLimitAndMemoryWithoutAllocating) {
  // Both branches on every machine: the id limit at the sentinel, and a
  // per-node size no machine's physical memory holds (2^40 bytes a node
  // for 2^20 nodes, an exabyte).
  detail::check_node_budget(1000, sizeof(std::size_t), "node offsets");
  const auto message = [](std::size_t nodes, std::size_t bytes_per_node) {
    try {
      detail::check_node_budget(nodes, bytes_per_node, "test state");
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message(kInvalidNode, 1).find("over the node-id limit"), std::string::npos);
  const std::string memory = message(std::size_t{1} << 20, std::size_t{1} << 40);
  EXPECT_NE(memory.find("bytes of test state, more than the machine's"), std::string::npos)
      << memory;
}

TEST(Graph, CompleteGraphEdgeCount) {
  const Graph g = complete_graph(10);
  EXPECT_EQ(g.num_edges(), 45u);
  EXPECT_EQ(g.max_degree(), 9u);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      EXPECT_EQ(g.has_edge(u, v), u != v);
    }
  }
}

// --- the parallel CSR fill against the serial reference -----------------
//
// from_canonical_edges splits large lists into row ranges filled on the
// pool; lists under about 2^17 edges take one range. The cases straddle
// that size and stress the split: no edges, isolated tail rows, one row
// holding every other row's neighbor, and id-random unit-disk graphs whose
// rows draw entries from every range.

/// Expects the fill of `edges` to equal the serial reference field by field.
void expect_matches_serial(NodeId n, const std::vector<Edge>& edges, const std::string& label) {
  SCOPED_TRACE(label);
  const testsupport::SerialCsr ref = testsupport::serial_csr(n, edges);
  const Graph g = Graph::from_canonical_edges(n, edges);
  ASSERT_EQ(g.num_nodes(), n);
  ASSERT_EQ(g.num_edges(), ref.edges.size());
  EXPECT_TRUE(std::equal(g.edges().begin(), g.edges().end(), ref.edges.begin(), ref.edges.end()));
  EXPECT_EQ(g.max_degree(), ref.max_degree);
  std::size_t mismatched_rows = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ids = g.incident_edges(u);
    const auto first = static_cast<std::ptrdiff_t>(ref.offsets[u]);
    const auto last = static_cast<std::ptrdiff_t>(ref.offsets[u + 1]);
    if (!std::equal(nbrs.begin(), nbrs.end(), ref.adj.begin() + first, ref.adj.begin() + last) ||
        !std::equal(ids.begin(), ids.end(), ref.adj_edge_ids.begin() + first,
                    ref.adj_edge_ids.begin() + last)) {
      ++mismatched_rows;
    }
  }
  EXPECT_EQ(mismatched_rows, 0u);
}

std::vector<Edge> star_edges(NodeId n, NodeId centre) {
  std::vector<Edge> edges;
  for (NodeId x = 0; x < n; ++x) {
    if (x != centre) edges.push_back(make_edge(x, centre));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<Edge> udg_edges(double mean_nodes, std::uint64_t seed, NodeId* n) {
  Rng rng(seed);
  const double side = std::sqrt(mean_nodes * std::numbers::pi / 10.0);  // average degree 10
  const GeometricGraph gg = random_unit_disk_graph(side, mean_nodes, rng);
  *n = gg.graph.num_nodes();
  return {gg.graph.edges().begin(), gg.graph.edges().end()};
}

TEST(GraphCsr, ParallelFillMatchesSerialReference) {
  expect_matches_serial(0, {}, "n = 0, m = 0");
  expect_matches_serial(7, {}, "n = 7, m = 0");
  expect_matches_serial(2, {{0, 1}}, "one edge");

  constexpr NodeId kLarge = 300000;  // m >= 2^18: four ranges on a 4-core pool
  std::vector<Edge> path;
  for (NodeId x = 0; x + 1 < kLarge; ++x) path.push_back({x, x + 1});
  expect_matches_serial(kLarge, path, "path");
  expect_matches_serial(2 * kLarge, path, "path with an isolated tail as long as itself");
  for (const NodeId centre : {NodeId{0}, kLarge / 2, kLarge - 1}) {
    expect_matches_serial(kLarge, star_edges(kLarge, centre),
                          "star with centre " + std::to_string(centre));
  }

  // Both sides of the one-range size, and edges between random ids: the
  // generator numbers points in draw order, not by position.
  for (const double mean_nodes : {2000.0, 26000.0, 60000.0}) {
    NodeId n = 0;
    const std::vector<Edge> edges = udg_edges(mean_nodes, 17, &n);
    expect_matches_serial(n, edges, "udg mean n " + std::to_string(mean_nodes));
    expect_matches_serial(n + 5000, edges, "udg with isolated tail");
  }

  // Far-apart endpoints: every row receives entries from every range.
  Rng rng(5);
  constexpr NodeId kRandomNodes = 40000;
  GraphBuilder random_builder(kRandomNodes);
  for (int i = 0; i < 400000; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform(kRandomNodes));
    const auto b = static_cast<NodeId>(rng.uniform(kRandomNodes));
    if (a != b) random_builder.add_edge(a, b);
  }
  const Graph random = random_builder.build();
  expect_matches_serial(kRandomNodes, {random.edges().begin(), random.edges().end()},
                        "uniform random pairs");
}

TEST(GraphCsr, RejectsNonCanonicalListsInEveryRange) {
  // The validation runs per chunk: a defect anywhere, including the edge
  // pair straddling two chunks, must throw on one-range and many-range
  // lists alike.
  for (const NodeId n : {NodeId{1000}, NodeId{400000}}) {
    std::vector<Edge> path;
    for (NodeId x = 0; x + 1 < n; ++x) path.push_back({x, x + 1});
    for (const std::size_t at : {std::size_t{0}, path.size() / 4, path.size() / 2,
                                 path.size() - 1}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", defect at " + std::to_string(at));
      auto swapped = path;
      std::swap(swapped[at], swapped[at == 0 ? 1 : at - 1]);
      EXPECT_THROW((void)Graph::from_canonical_edges(n, swapped), CheckError);
      auto duplicated = path;
      duplicated[at == 0 ? 1 : at] = duplicated[at == 0 ? 0 : at - 1];
      EXPECT_THROW((void)Graph::from_canonical_edges(n, duplicated), CheckError);
      auto reversed = path;
      std::swap(reversed[at].u, reversed[at].v);
      EXPECT_THROW((void)Graph::from_canonical_edges(n, reversed), CheckError);
      auto self_loop = path;
      self_loop[at].v = self_loop[at].u;
      EXPECT_THROW((void)Graph::from_canonical_edges(n, self_loop), CheckError);
    }
    EXPECT_THROW((void)Graph::from_canonical_edges(n - 1, path), CheckError);  // last v == n
  }
}

}  // namespace
}  // namespace remspan
