// EdgeSet: a subset of a Graph's edges, the representation of every spanner
// and remote-spanner H computed by this library. Backed by a bitset over
// edge ids so that union-of-dominating-trees and "neighbors of u inside H"
// are both cheap.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/bitset.hpp"
#include "util/prelude.hpp"

namespace remspan {

class EdgeSet {
 public:
  /// Empty subset (or the full edge set when all == true) of g. The Graph
  /// must outlive the EdgeSet.
  explicit EdgeSet(const Graph& g, bool all = false) : graph_(&g), bits_(g.edge_id_bound()) {
    if (all) g.for_each_edge([&](const Edge& /*e*/, EdgeId id) { bits_.set(id); });
  }

  /// Adopts an already-built bitset over g's edge ids (one bit per id below
  /// g.edge_id_bound()). This is how the parallel spanner union turns its
  /// reduced per-worker bitsets into an EdgeSet without re-inserting every
  /// edge.
  EdgeSet(const Graph& g, DynamicBitset bits) : graph_(&g), bits_(std::move(bits)) {
    REMSPAN_CHECK(bits_.size() == g.edge_id_bound());
  }

  /// Moves the bitset out, leaving the set without bits: the inverse of the
  /// adopting constructor, for owners that patch bits across versions.
  [[nodiscard]] DynamicBitset release_bits() && { return std::move(bits_); }

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  void insert(EdgeId id) { bits_.set(id); }

  /// Removes an edge by id; the id must be within the underlying graph's
  /// edge range (same guard discipline as the adopting constructor).
  void remove(EdgeId id) {
    REMSPAN_CHECK(id < bits_.size());
    bits_.reset(id);
  }

  /// Synonym kept for symmetry with insert(EdgeId).
  void erase(EdgeId id) { remove(id); }

  /// Removes a whole batch of edge ids (e.g. one retired dominating tree);
  /// every id is range-checked before any bit is touched.
  void remove_batch(std::span<const EdgeId> ids) {
    for (const EdgeId id : ids) REMSPAN_CHECK(id < bits_.size());
    for (const EdgeId id : ids) bits_.reset(id);
  }

  /// Inserts edge {a,b}; the edge must exist in the underlying graph.
  void insert(NodeId a, NodeId b) {
    const EdgeId id = graph_->find_edge(a, b);
    REMSPAN_CHECK(id != kInvalidEdge);
    bits_.set(id);
  }

  [[nodiscard]] bool contains(EdgeId id) const noexcept { return bits_.test(id); }
  [[nodiscard]] bool contains(NodeId a, NodeId b) const noexcept {
    const EdgeId id = graph_->find_edge(a, b);
    return id != kInvalidEdge && bits_.test(id);
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_.count(); }

  EdgeSet& operator|=(const EdgeSet& other) {
    REMSPAN_CHECK(graph_ == other.graph_);
    bits_ |= other.bits_;
    return *this;
  }

  [[nodiscard]] bool operator==(const EdgeSet& other) const noexcept {
    return graph_ == other.graph_ && bits_ == other.bits_;
  }

  /// Degree of u counting only selected edges. A count, not a distance:
  /// returned as std::size_t so dense graphs cannot narrow it.
  [[nodiscard]] std::size_t degree_in(NodeId u) const {
    std::size_t d = 0;
    for (const EdgeId id : graph_->incident_edges(u)) {
      if (bits_.test(id)) ++d;
    }
    return d;
  }

  /// Calls fn(v) for every neighbor v of u connected by a selected edge.
  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const {
    const auto nbrs = graph_->neighbors(u);
    const auto ids = graph_->incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (bits_.test(ids[i])) fn(nbrs[i]);
    }
  }

  /// Materializes the selected edges in canonical order.
  [[nodiscard]] std::vector<Edge> edge_list() const {
    std::vector<Edge> out;
    out.reserve(size());
    graph_->for_each_edge([&](const Edge& e, EdgeId id) {
      if (bits_.test(id)) out.push_back(e);
    });
    return out;
  }

  /// The raw bitset (used by tests for exact distributed-vs-central compares).
  [[nodiscard]] const DynamicBitset& bits() const noexcept { return bits_; }

 private:
  const Graph* graph_;
  DynamicBitset bits_;
};

}  // namespace remspan
