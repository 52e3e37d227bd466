#include "graph/connectivity.hpp"

#include <algorithm>

#include "graph/disjoint_paths.hpp"

namespace remspan {

namespace {

/// Plain label-only BFS from every unlabeled node: the component array is
/// the visited set, and the queue is the only other state.
template <NeighborView View>
Components components_of(const View& view) {
  const NodeId n = view.num_nodes();
  Components comps;
  comps.component.assign(n, kInvalidNode);
  std::vector<NodeId> queue;
  for (NodeId start = 0; start < n; ++start) {
    if (comps.component[start] != kInvalidNode) continue;
    comps.component[start] = comps.count;
    queue.assign(1, start);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      view.for_each_neighbor(queue[head], [&](NodeId v) {
        if (comps.component[v] == kInvalidNode) {
          comps.component[v] = comps.count;
          queue.push_back(v);
        }
      });
    }
    ++comps.count;
  }
  return comps;
}

}  // namespace

std::vector<NodeId> Components::largest() const {
  std::vector<std::size_t> sizes(count, 0);
  for (const NodeId c : component) ++sizes[c];
  const auto best =
      static_cast<NodeId>(std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> out;
  out.reserve(sizes[best]);
  for (NodeId v = 0; v < component.size(); ++v) {
    if (component[v] == best) out.push_back(v);
  }
  return out;
}

Components connected_components(const Graph& g) { return components_of(GraphView(g)); }

Components connected_components(const EdgeSet& h) { return components_of(SubgraphView(h)); }

bool is_connected(const Graph& g) {
  return g.num_nodes() <= 1 || connected_components(g).count == 1;
}

Graph largest_component(const Graph& g) {
  const auto comps = connected_components(g);
  if (comps.count <= 1) return g;
  return induced_subgraph(g, comps.largest()).graph;
}

InducedSubgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& keep) {
  // keep is sorted, so old -> new is monotone: the kept edges of the
  // canonical list come out canonical with no re-sort.
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < keep.size(); ++i) {
    REMSPAN_CHECK(i == 0 || keep[i - 1] < keep[i]);  // sorted & unique
    REMSPAN_CHECK(keep[i] < g.num_nodes());
    remap[keep[i]] = i;
  }
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    if (remap[e.u] != kInvalidNode && remap[e.v] != kInvalidNode) {
      edges.push_back(Edge{remap[e.u], remap[e.v]});
    }
  }
  return InducedSubgraph{Graph::from_canonical_edges(static_cast<NodeId>(keep.size()),
                                                     std::move(edges)),
                         keep};
}

Dist vertex_connectivity(const Graph& g, NodeId s, NodeId t, Dist cap) {
  REMSPAN_CHECK(s != t);
  const Dist limit = cap == 0 ? g.num_nodes() : cap;
  const auto result = min_disjoint_paths(GraphView(g), s, t, limit);
  return result.connectivity();
}

}  // namespace remspan
