// The single-threaded CSR fill Graph::from_canonical_edges used before it
// was parallelised, kept verbatim as the reference the parallel fill must
// reproduce field for field (GraphCsr suite in test_graph.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace remspan::testsupport {

struct SerialCsr {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> adj;
  std::vector<EdgeId> adj_edge_ids;
  std::vector<Edge> edges;
  Dist max_degree = 0;
};

/// One counting pass, a prefix sum, then one scan in canonical order: node
/// x first receives its neighbors u < x (from edges (u,x), scanned in
/// ascending u), then its neighbors w > x (from edges (x,w), ascending w),
/// so every row comes out sorted with no per-row sort.
inline SerialCsr serial_csr(NodeId num_nodes, std::vector<Edge> edges) {
  detail::check_graph_limits(num_nodes, edges.size());
  SerialCsr g;
  g.edges = std::move(edges);
  g.offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const Edge& e = g.edges[i];
    REMSPAN_CHECK(e.u < e.v && e.v < num_nodes);
    REMSPAN_CHECK(i == 0 || g.edges[i - 1] < e);
    ++g.offsets[e.u + 1];
    ++g.offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets.size(); ++i) {
    g.offsets[i] += g.offsets[i - 1];
  }
  g.adj.resize(2 * g.edges.size());
  g.adj_edge_ids.resize(2 * g.edges.size());
  std::vector<std::size_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (EdgeId id = 0; id < g.edges.size(); ++id) {
    const Edge& e = g.edges[id];
    g.adj[cursor[e.u]] = e.v;
    g.adj_edge_ids[cursor[e.u]++] = id;
    g.adj[cursor[e.v]] = e.u;
    g.adj_edge_ids[cursor[e.v]++] = id;
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    g.max_degree = std::max(g.max_degree, static_cast<Dist>(g.offsets[u + 1] - g.offsets[u]));
  }
  return g;
}

}  // namespace remspan::testsupport
