// Breadth-first search over any NeighborView, with optional depth bound.
//
// BoundedBfs keeps a single node-indexed array between runs: each node's
// slot, 1 + its position in order() when the last run reached it and 0
// otherwise. Distance, parent and parent edge live in a per-slot table
// that grows with the ball, and a run resets only the slots of the nodes
// it touched, so per-root ball explorations (the inner loop of every
// dominating-tree algorithm) cost O(|ball|), not O(n), and the only
// n-sized state is 4 bytes per node.
//
// Slot 0 is the shared "outside the ball" entry (kUnreachable,
// kInvalidNode, kInvalidEdge), so every accessor is a plain two-step load
// with no branch. Callers keep their own per-run scratch the same way:
// sized order().size() + 1 and indexed by slot(v), its entry 0 is where
// every node outside the ball lands (the dominating-tree builders do this).
//
// The visit order is a reusable flat workspace for the ball B(src, depth):
// nodes are appended in non-decreasing distance, and run() records the
// offset at which each distance shell starts, so shell(d) hands back the
// nodes at exactly distance d as a contiguous span in O(1). The
// dominating-tree builders iterate one shell at a time in O(|shell|)
// instead of rescanning the whole ball per shell.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/views.hpp"
#include "obs/obs.hpp"
#include "util/prelude.hpp"

namespace remspan {

class BoundedBfs {
 public:
  explicit BoundedBfs(std::size_t n) : slot_(n, 0), visit_(1, kOutside) {}

  /// Size of the node universe the BFS was built for.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return slot_.size(); }

  /// Runs BFS from src, exploring nodes at distance <= max_depth. Returns the
  /// visit order (src first, non-decreasing distance). Results stay valid
  /// until the next run() call.
  template <NeighborView View>
  const std::vector<NodeId>& run(const View& view, NodeId src, Dist max_depth = kUnreachable) {
    REMSPAN_CHECK(src < view.num_nodes());
    return run_multi(view, {&src, 1}, max_depth);
  }

  /// Multi-source variant: every source starts at distance 0 (shell 0 holds
  /// the sources, duplicates collapse). dist(v) is the distance to the
  /// nearest source — this is how the incremental spanner engine expands
  /// the union of balls around the endpoints touched by a batch of graph
  /// updates in one pass.
  template <NeighborView View>
  const std::vector<NodeId>& run_multi(const View& view, std::span<const NodeId> sources,
                                       Dist max_depth = kUnreachable) {
    reset();
    for (const NodeId src : sources) {
      REMSPAN_CHECK(src < view.num_nodes());
      if (slot_[src] != 0) continue;  // duplicate source
      append(src, Visit{0, kInvalidNode, kInvalidEdge});
    }
    shell_offsets_.push_back(0);  // shell 0 starts at order_[0]
    // order_ doubles as the queue: nodes are appended in BFS order.
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const NodeId u = order_[head];
      const Dist du = visit_[head + 1].dist;
      if (du >= max_depth) continue;
      const Dist dv = du + 1;
      auto visit = [&](NodeId v, EdgeId id) {
        if (slot_[v] == 0) {
          // First node of a new shell: record where it starts. Shells appear
          // in order because order_ is sorted by distance.
          if (dv == shell_offsets_.size()) shell_offsets_.push_back(order_.size());
          append(v, Visit{dv, u, id});
        }
      };
      if constexpr (EdgeNeighborView<View>) {
        view.for_each_neighbor_edge(u, visit);
      } else {
        view.for_each_neighbor(u, [&](NodeId v) { visit(v, kInvalidEdge); });
      }
    }
    if (obs::Registry* m = obs::metrics()) publish_stats(*m);
    return order_;
  }

  [[nodiscard]] Dist dist(NodeId v) const noexcept { return visit_[slot_[v]].dist; }
  [[nodiscard]] bool reached(NodeId v) const noexcept { return slot_[v] != 0; }

  /// 1 + v's position in order() when the last run reached v, else 0.
  /// Per-run scratch sized order().size() + 1 and indexed by slot(v) holds
  /// exactly the ball plus one shared entry for every node outside it.
  [[nodiscard]] std::uint32_t slot(NodeId v) const noexcept { return slot_[v]; }

  /// BFS-tree parent of v (kInvalidNode for the source and unreached nodes).
  /// Following parents from x to the source traces a shortest path, which is
  /// exactly how the dominating-tree algorithms add "a shortest path from u
  /// to x in G" while keeping the union a tree (DESIGN.md §4).
  [[nodiscard]] NodeId parent(NodeId v) const noexcept { return visit_[slot_[v]].parent; }

  /// Id of the edge {parent(v), v} in the underlying Graph, recorded when the
  /// last run() used an EdgeNeighborView (kInvalidEdge for the source,
  /// unreached nodes, and runs over edge-less views).
  [[nodiscard]] EdgeId parent_edge(NodeId v) const noexcept {
    return visit_[slot_[v]].parent_edge;
  }

  [[nodiscard]] const std::vector<NodeId>& order() const noexcept { return order_; }

  /// Number of non-empty distance shells of the last run (max distance + 1);
  /// 0 before the first run.
  [[nodiscard]] Dist num_shells() const noexcept {
    return static_cast<Dist>(shell_offsets_.size());
  }

  /// The nodes at exactly distance d from the source, as a contiguous slice
  /// of order() (empty span for d >= num_shells()). Within a shell, nodes
  /// appear in discovery order, not id order.
  [[nodiscard]] std::span<const NodeId> shell(Dist d) const noexcept {
    if (d >= shell_offsets_.size()) return {};
    const std::size_t begin = shell_offsets_[d];
    const std::size_t end =
        d + 1 < shell_offsets_.size() ? shell_offsets_[d + 1] : order_.size();
    return {order_.data() + begin, order_.data() + end};
  }

 private:
  /// Whole-run totals for the installed metrics sink: the ball that was
  /// just expanded, its shell-size distribution and the widest shell
  /// (frontier occupancy). One call per run keeps the disabled path to the
  /// single branch in run_multi.
  void publish_stats(obs::Registry& m) const {
    m.counter("bfs.runs").add(1);
    m.counter("bfs.nodes_expanded").add(order_.size());
    m.histogram("bfs.ball_nodes").record(order_.size());
    std::size_t widest = 0;
    for (std::size_t d = 0; d < shell_offsets_.size(); ++d) {
      const std::size_t end =
          d + 1 < shell_offsets_.size() ? shell_offsets_[d + 1] : order_.size();
      const std::size_t width = end - shell_offsets_[d];
      if (width > widest) widest = width;
      m.histogram("bfs.shell_nodes").record(width);
    }
    m.histogram("bfs.frontier_max").record(widest);
  }

  /// What a run learned about one reached node, stored by slot.
  struct Visit {
    Dist dist;
    NodeId parent;
    EdgeId parent_edge;
  };
  static constexpr Visit kOutside{kUnreachable, kInvalidNode, kInvalidEdge};

  void append(NodeId v, const Visit& visit) {
    order_.push_back(v);
    slot_[v] = static_cast<std::uint32_t>(order_.size());
    visit_.push_back(visit);
  }

  void reset() {
    for (const NodeId v : order_) slot_[v] = 0;
    order_.clear();
    visit_.resize(1);  // keeps the kOutside entry at slot 0
    shell_offsets_.clear();
  }

  std::vector<std::uint32_t> slot_;  // node -> 1 + position in order_, 0 = outside
  std::vector<Visit> visit_;         // slot -> visit record; visit_[0] == kOutside
  std::vector<NodeId> order_;
  std::vector<std::size_t> shell_offsets_;  // shell d starts at order_[shell_offsets_[d]]
};

/// One-shot BFS: distance vector from src over the view (kUnreachable for
/// unreached nodes).
template <NeighborView View>
[[nodiscard]] std::vector<Dist> bfs_distances(const View& view, NodeId src,
                                              Dist max_depth = kUnreachable) {
  BoundedBfs bfs(view.num_nodes());
  bfs.run(view, src, max_depth);
  std::vector<Dist> out(view.num_nodes(), kUnreachable);
  for (const NodeId v : bfs.order()) out[v] = bfs.dist(v);
  return out;
}

/// Distance between two nodes over the view.
template <NeighborView View>
[[nodiscard]] Dist bfs_distance(const View& view, NodeId src, NodeId dst) {
  BoundedBfs bfs(view.num_nodes());
  bfs.run(view, src);
  return bfs.dist(dst);
}

}  // namespace remspan
