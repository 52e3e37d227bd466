#include "baseline/greedy_spanner.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "graph/bfs.hpp"
#include "graph/views.hpp"

namespace remspan {

EdgeSet greedy_spanner(const Graph& g, double t) {
  REMSPAN_CHECK(t >= 1.0);
  EdgeSet h(g);
  const auto hop_budget = static_cast<Dist>(std::floor(t));
  BoundedBfs bfs(g.num_nodes());
  g.for_each_edge([&](const Edge& e, EdgeId id) {
    // Keep the edge iff H currently has no u-v path of <= t hops.
    bfs.run(SubgraphView(h), e.u, hop_budget);
    if (bfs.dist(e.v) == kUnreachable) h.insert(id);
  });
  return h;
}

namespace {

/// Dijkstra over the selected edges with metric lengths, aborted once every
/// frontier label exceeds `limit`. Returns the distance to target (inf when
/// above the limit).
double weighted_distance_within(const GeometricGraph& gg, const EdgeSet& h, NodeId source,
                                NodeId target, double limit) {
  const Graph& g = gg.graph;
  std::vector<double> dist(g.num_nodes(), std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == target) return d;
    if (d > limit) break;
    h.for_each_neighbor(u, [&, u = u, d = d](NodeId v) {
      const double w = gg.edge_length(make_edge(u, v));
      if (d + w < dist[v]) {
        dist[v] = d + w;
        heap.emplace(dist[v], v);
      }
    });
  }
  return dist[target];
}

std::vector<EdgeId> edges_by_length(const GeometricGraph& gg) {
  // Ties keep the canonical edge order.
  std::vector<EdgeId> order;
  order.reserve(gg.graph.num_edges());
  gg.graph.for_each_edge([&](const Edge& /*e*/, EdgeId id) { order.push_back(id); });
  std::stable_sort(order.begin(), order.end(), [&gg](EdgeId a, EdgeId b) {
    return gg.edge_length(gg.graph.edge(a)) < gg.edge_length(gg.graph.edge(b));
  });
  return order;
}

}  // namespace

EdgeSet greedy_spanner_weighted(const GeometricGraph& gg, double t) {
  REMSPAN_CHECK(t >= 1.0);
  EdgeSet h(gg.graph);
  for (const EdgeId id : edges_by_length(gg)) {
    const Edge& e = gg.graph.edge(id);
    const double limit = t * gg.edge_length(e);
    if (weighted_distance_within(gg, h, e.u, e.v, limit) > limit) h.insert(id);
  }
  return h;
}

EdgeSet layered_fault_tolerant_spanner(const GeometricGraph& gg, double t, Dist k) {
  REMSPAN_CHECK(t >= 1.0);
  const Graph& g = gg.graph;
  EdgeSet result(g);
  const auto order = edges_by_length(gg);
  // k+1 edge-disjoint greedy layers: each layer spans the edges the earlier
  // layers left out.
  for (Dist layer = 0; layer <= k; ++layer) {
    EdgeSet current(g);
    for (const EdgeId id : order) {
      if (result.contains(id)) continue;
      const Edge& e = g.edge(id);
      const double limit = t * gg.edge_length(e);
      if (weighted_distance_within(gg, current, e.u, e.v, limit) > limit) current.insert(id);
    }
    result |= current;
  }
  return result;
}

}  // namespace remspan
