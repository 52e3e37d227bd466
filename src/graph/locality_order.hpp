// Locality root order: the schedule the per-root spanner builds walk.
// Consecutive roots of a compact cluster have overlapping balls, so a
// worker's chunk of the order re-reads adjacency that is still in cache,
// where id order jumps across the whole CSR of a geometric graph. Root
// order never changes a build's output (tests/test_order_invariance.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// Cluster size of the builds' root order: a chunk of consecutive roots
/// shares most of its balls, and a cluster stays a compact blob rather
/// than a thin BFS frontier ring.
inline constexpr std::size_t kLocalityCluster = 128;

/// A deterministic locality order over all nodes: a sequence of bounded
/// BFS clusters. Each cluster seeds at the smallest unvisited id and grows
/// breadth-first to at most `cluster_size` nodes (0 = unbounded, i.e.
/// plain per-component BFS). Pure function of (graph, cluster_size).
[[nodiscard]] std::vector<NodeId> locality_root_order(const Graph& g,
                                                      std::size_t cluster_size);

}  // namespace remspan
