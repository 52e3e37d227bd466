// RootedTree: the in-memory form of the paper's dominating trees. A tree
// sub-graph of G rooted at u, grown by attaching BFS-parent chains. Tracks
// depth and the depth-1 branch of every member, which is what the
// k-connecting dominating-tree conditions are expressed in (disjoint tree
// paths from the root share only the root iff they live in distinct
// branches).
//
// Storage is a flat member list in insertion order, one parallel entry per
// member (parent edge id; parent, depth and branch), and nothing else: no
// per-node index and no hash table. A dominating tree has a few dozen
// members, so the by-node lookups below are short linear scans, and the
// builders that grow trees (DomTreeBuilder) track membership in their own
// ball-indexed scratch, check add_child's contract there, and append
// through the friend path. One builder reuses one RootedTree for every
// root it builds, so after warm-up a per-root build allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/prelude.hpp"

namespace remspan {

class RootedTree {
 public:
  explicit RootedTree(NodeId root) { reset(root); }

  [[nodiscard]] NodeId root() const noexcept { return nodes_.front(); }
  [[nodiscard]] bool contains(NodeId v) const { return find(v) != kAbsent; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return nodes_.size() - 1; }

  /// Depth of v in the tree (kUnreachable when absent). d_T(root, v) == depth.
  [[nodiscard]] Dist depth(NodeId v) const {
    const std::size_t i = find(v);
    return i == kAbsent ? kUnreachable : links_[i].depth;
  }

  [[nodiscard]] NodeId parent(NodeId v) const {
    const std::size_t i = find(v);
    return i == kAbsent ? kInvalidNode : links_[i].parent;
  }

  /// Graph edge id of {parent(v), v} as recorded at add_child time
  /// (kInvalidEdge for the root, absent nodes, and graph-less trees).
  [[nodiscard]] EdgeId parent_edge(NodeId v) const {
    const std::size_t i = find(v);
    return i == kAbsent ? kInvalidEdge : parent_edges_[i];
  }

  /// The child of the root on the path root -> v; kInvalidNode for the root
  /// itself or absent nodes. Two members have internally disjoint root paths
  /// iff their branches differ.
  [[nodiscard]] NodeId branch(NodeId v) const {
    const std::size_t i = find(v);
    return i == kAbsent ? kInvalidNode : links_[i].branch;
  }

  /// Attaches v as a child of p (p must already be in the tree). If v is
  /// already present it must have the same parent; conflicting attachments
  /// indicate an algorithmic bug and trip a check. `edge` is the id of
  /// {p, v} in the underlying Graph when the caller knows it (the BFS that
  /// discovered v records it); kInvalidEdge for trees built without a graph.
  void add_child(NodeId p, NodeId v, EdgeId edge = kInvalidEdge) {
    const std::size_t pi = find(p);
    REMSPAN_CHECK(pi != kAbsent);
    const std::size_t vi = find(v);
    if (vi != kAbsent) {
      REMSPAN_CHECK(links_[vi].parent == p);
      return;
    }
    append(pi, v, edge);
  }

  /// Members in insertion order (root first).
  [[nodiscard]] const std::vector<NodeId>& nodes() const noexcept { return nodes_; }

  /// Graph edge ids of the tree edges: entry i is the parent edge of
  /// nodes()[i + 1]. This is how the unions read a tree with no lookup.
  [[nodiscard]] std::span<const EdgeId> parent_edges() const noexcept {
    return std::span<const EdgeId>(parent_edges_).subspan(1);
  }

  /// Tree edges as canonical graph edges.
  [[nodiscard]] std::vector<Edge> edges() const {
    std::vector<Edge> out;
    out.reserve(num_edges());
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      out.push_back(make_edge(nodes_[i], links_[i].parent));
    }
    return out;
  }

 private:
  friend class DomTreeBuilder;

  struct Link {
    NodeId parent;
    Dist depth;
    NodeId branch;
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] std::size_t find(NodeId v) const {
    const auto it = std::find(nodes_.begin(), nodes_.end(), v);
    return it == nodes_.end() ? kAbsent : static_cast<std::size_t>(it - nodes_.begin());
  }

  /// Empties the tree down to `root`, keeping the members' capacity.
  void reset(NodeId root) {
    nodes_.assign(1, root);
    parent_edges_.assign(1, kInvalidEdge);
    links_.assign(1, Link{kInvalidNode, 0, kInvalidNode});
  }

  /// Appends v (not yet a member) under the member at index `pi`; returns
  /// v's index. No lookups: the caller vouches for both preconditions.
  std::size_t append(std::size_t pi, NodeId v, EdgeId edge) {
    const Link& p = links_[pi];
    const Link link{nodes_[pi], p.depth + 1, pi == 0 ? v : p.branch};
    nodes_.push_back(v);
    parent_edges_.push_back(edge);
    links_.push_back(link);  // built before push_back: the push may reallocate p
    return nodes_.size() - 1;
  }

  std::vector<NodeId> nodes_;        // members, root first
  std::vector<EdgeId> parent_edges_;  // parallel to nodes_
  std::vector<Link> links_;           // parallel to nodes_
};

}  // namespace remspan
