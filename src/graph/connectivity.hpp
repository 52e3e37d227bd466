// Connectivity primitives: connected components and pairwise vertex
// connectivity (number of internally node-disjoint paths). Vertex
// connectivity is implemented through the same node-split flow network as
// the k-connecting distance oracle (flow.hpp).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/views.hpp"
#include "util/prelude.hpp"

namespace remspan {

struct Components {
  /// component[v] = component index in [0, count).
  std::vector<NodeId> component;
  NodeId count = 0;

  /// Nodes of the largest component, sorted.
  [[nodiscard]] std::vector<NodeId> largest() const;
};

/// Connected components over the full graph.
[[nodiscard]] Components connected_components(const Graph& g);

/// Connected components restricted to an edge subset.
[[nodiscard]] Components connected_components(const EdgeSet& h);

/// Whether the graph is connected (trivially true for n <= 1).
[[nodiscard]] bool is_connected(const Graph& g);

/// Restriction of g to the given nodes, with node ids remapped to
/// 0..keep.size()-1 (keep must be sorted, unique, and name nodes of g).
/// Returns the graph and the old-id of every new node. The remap is
/// monotone, so g's canonical edge order carries over without a sort. Used
/// to run experiments on the largest component of random geometric graphs.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> original_id;
};
[[nodiscard]] InducedSubgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& keep);

/// Largest connected component of g with node ids remapped (g itself when
/// already connected). The standard workload normalization: random geometric
/// graphs are usually connected at the densities the paper uses, but
/// stragglers would distort per-node averages. The geometry-preserving
/// overload lives in geom/ball_graph.hpp.
[[nodiscard]] Graph largest_component(const Graph& g);

/// Maximum number of internally node-disjoint s-t paths, capped at `cap`
/// (cap = 0 means uncapped). For adjacent s,t the edge st itself counts as
/// one path, matching the paper's path-counting convention.
[[nodiscard]] Dist vertex_connectivity(const Graph& g, NodeId s, NodeId t, Dist cap = 0);

}  // namespace remspan
