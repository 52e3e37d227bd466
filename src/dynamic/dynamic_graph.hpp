// DynamicGraph: the mutable update layer under the immutable Graph.
//
// Remote-spanner workloads are never frozen: links fade, nodes move, radios
// die. DynamicGraph keeps the evolving topology as a set of stored edges
// over a fixed node universe plus a per-node liveness mask, and hands out
// versioned immutable snapshots (ordinary Graph objects) that the rest of
// the library — builders, oracles, benches — consumes unchanged.
//
// Snapshots are copy-on-write versions. Every live edge holds a slot (its
// EdgeId) for as long as it stays live; a new snapshot copies the block
// tables and the row blocks and slot blocks its batch touched, and shares
// every other block with the one before. Each snapshot comes with its
// change record (the live edges it removed and inserted, with their
// slots), which the topology's one owner — an IncrementalSpanner or a
// ReconvergenceSim — consumes: per-edge state (refcounts, spanner bits) is
// keyed by slot and needs no remap.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// One topology update. Edge events carry both endpoints; node events only
/// `u` (v stays kInvalidNode).
enum class GraphEventKind : std::uint8_t { kEdgeUp, kEdgeDown, kNodeUp, kNodeDown };

struct GraphEvent {
  GraphEventKind kind = GraphEventKind::kEdgeUp;
  NodeId u = kInvalidNode;  ///< canonical lower endpoint (or the node, for node events)
  NodeId v = kInvalidNode;  ///< canonical upper endpoint (kInvalidNode for node events)

  [[nodiscard]] static GraphEvent edge_up(NodeId a, NodeId b) {
    const Edge e = make_edge(a, b);
    return {GraphEventKind::kEdgeUp, e.u, e.v};
  }
  [[nodiscard]] static GraphEvent edge_down(NodeId a, NodeId b) {
    const Edge e = make_edge(a, b);
    return {GraphEventKind::kEdgeDown, e.u, e.v};
  }
  [[nodiscard]] static GraphEvent node_up(NodeId a) {
    return {GraphEventKind::kNodeUp, a, kInvalidNode};
  }
  [[nodiscard]] static GraphEvent node_down(NodeId a) {
    return {GraphEventKind::kNodeDown, a, kInvalidNode};
  }

  friend bool operator==(const GraphEvent&, const GraphEvent&) = default;
};

/// The live-edge difference between two graphs of one node universe.
struct GraphDelta {
  std::vector<Edge> removed;              ///< in old, not in new (canonical order)
  std::vector<EdgeId> removed_old_ids;    ///< parallel to removed
  std::vector<Edge> inserted;             ///< in new, not in old (canonical order)
  std::vector<EdgeId> inserted_new_ids;   ///< parallel to inserted

  [[nodiscard]] bool empty() const noexcept { return removed.empty() && inserted.empty(); }
};

class DynamicGraph {
 public:
  /// Bytes of per-node state a DynamicGraph(n) allocates: the stored row
  /// header, the liveness byte and the empty snapshot's row offset.
  static constexpr std::size_t kBytesPerNode =
      sizeof(std::vector<NodeId>) + sizeof(std::uint8_t) + sizeof(std::size_t);

  /// Empty topology over a fixed node universe [0, num_nodes), all nodes up.
  /// Throws CheckError, before allocating, when num_nodes is over the id
  /// limit or its per-node state would not fit in physical memory.
  explicit DynamicGraph(NodeId num_nodes);

  /// Adopts an existing graph as the initial topology (all nodes up). The
  /// first snapshot shares the graph's storage and its edge ids.
  explicit DynamicGraph(const Graph& initial);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }

  /// Whether v is currently up. Down nodes keep their stored edges; every
  /// incident link is simply masked out of snapshots until the node
  /// returns (the ad-hoc radio model: a rebooting node regains its old
  /// neighborhood if nobody moved).
  [[nodiscard]] bool node_up(NodeId v) const {
    REMSPAN_CHECK(v < n_);
    return up_[v] != 0;
  }

  /// Whether the edge {a,b} is stored (regardless of endpoint liveness).
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;

  /// Stored edges (live and masked).
  [[nodiscard]] std::size_t num_stored_edges() const noexcept { return stored_edges_; }

  /// Bumped every time apply() changes stored state; snapshots are cached
  /// per version, so repeated snapshot() calls between updates are free.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Applies one event. Returns whether the stored state changed (re-adding
  /// a present edge, dropping an absent one, and re-toggling liveness are
  /// all idempotent no-ops). Endpoints must be in range; edge events must
  /// not be self-loops.
  bool apply(const GraphEvent& event);

  /// Applies a batch in order; returns how many events changed state.
  std::size_t apply_all(std::span<const GraphEvent> events);

  /// Immutable snapshot of the live topology: stored edges whose two
  /// endpoints are both up. Cached until the next state change; the
  /// shared_ptr keeps a snapshot valid for as long as any consumer (e.g. an
  /// EdgeSet over it) still holds it, through any number of later batches.
  ///
  /// A new version is the previous one with the block tables copied and
  /// each row block and slot block the batch's net change touches copied
  /// once (a block's rows are merged with all of their edits in one pass);
  /// every other block is shared. A batch whose net live change is empty
  /// publishes nothing: the previous snapshot object is returned again.
  [[nodiscard]] std::shared_ptr<const Graph> snapshot();

  /// The change record of the latest snapshot() call: the live edges the
  /// snapshot it returned removed from the one before, with the slots they
  /// held, and inserted, with the slots they took, both in canonical order.
  /// An edge live in both keeps its slot. Empty when that call returned the
  /// previous snapshot again. A slot freed by one snapshot is reused no
  /// earlier than the next one, so a consumer that retires the removed
  /// slots' owners before it publishes never sees one slot hold two edges.
  [[nodiscard]] const GraphDelta& last_change() const noexcept { return change_; }

 private:
  struct RowStore;

  [[nodiscard]] bool edge_live(const Edge& e) const;
  [[nodiscard]] EdgeId take_slot(std::size_t& bound);
  /// The previous snapshot with `change` applied: copies the tables and
  /// each touched block once.
  [[nodiscard]] Graph next_version(const Graph& prev, const GraphDelta& change);

  NodeId n_ = 0;
  /// Stored adjacency (sorted rows), liveness-agnostic.
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::uint8_t> up_;
  std::size_t stored_edges_ = 0;
  std::uint64_t version_ = 0;
  /// Number of rows of each degree in the current snapshot, for the next
  /// one's max_degree.
  std::vector<std::size_t> degree_rows_;
  /// Slots free for the next snapshot, and slots the current one freed
  /// (free from the snapshot after it on).
  std::vector<EdgeId> free_slots_;
  std::vector<EdgeId> freed_slots_;

  /// Edges / nodes whose events arrived since the last materialized
  /// snapshot — the candidates of its change record (cleared by snapshot()).
  std::vector<Edge> pending_edges_;
  std::vector<NodeId> pending_nodes_;
  std::uint64_t snapshot_version_ = 0;
  std::shared_ptr<const Graph> snapshot_;
  GraphDelta change_;
};

/// Exact live-edge delta between two arbitrary graphs of one node
/// universe: merge-walks both graphs' rows in canonical order,
/// O(n + m_old + m_new). Survivors are matched by node pair, whatever
/// their ids.
[[nodiscard]] GraphDelta diff_graphs(const Graph& old_graph, const Graph& new_graph);

/// Sorted unique endpoints of every changed edge in the delta — the seed
/// set for the dirty-root ball expansion.
[[nodiscard]] std::vector<NodeId> touched_endpoints(const GraphDelta& delta);

/// Per-side seed sets: removals dirty roots at OLD distances, insertions at
/// NEW ones (the decremental/incremental fast path of IncrementalSpanner
/// expands each side only in the snapshot where its edges exist).
[[nodiscard]] std::vector<NodeId> removed_endpoints(const GraphDelta& delta);
[[nodiscard]] std::vector<NodeId> inserted_endpoints(const GraphDelta& delta);

}  // namespace remspan
