// Immutable undirected simple graph in CSR form, read through row blocks.
//
// Remote-spanner algorithms operate on an input graph G and select a subset
// of its edges; the Graph therefore assigns every undirected edge a stable
// EdgeId (its slot) and exposes, for each adjacency entry, the id of the
// edge it belongs to. EdgeSet (edge_set.hpp) represents spanners as bitsets
// over those ids, giving O(deg) iteration over "neighbors of u within H".
//
// Rows are grouped into fixed-size row blocks and the id -> Edge table into
// slot blocks; a Graph reads both through flat tables of raw pointers. A
// graph from from_canonical_edges points every entry into its one
// contiguous CSR, with ids = canonical list positions. A DynamicGraph
// snapshot is a copy-on-write version of the previous one: it shares every
// block a batch did not touch, and an edge keeps its slot for as long as it
// stays live, so ids never need remapping across versions.
#pragma once

#include <algorithm>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "util/prelude.hpp"

namespace remspan {

/// Canonical undirected edge: u < v always holds. Ordering is
/// lexicographic on (u, v), i.e. the canonical edge-list order.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Normalizes an endpoint pair into canonical form.
[[nodiscard]] constexpr Edge make_edge(NodeId a, NodeId b) noexcept {
  return a < b ? Edge{a, b} : Edge{b, a};
}

class Graph;

namespace detail {
/// Overflow guards for graph construction: node and edge counts must fit
/// the 32-bit NodeId/EdgeId index types, whose max values are reserved as
/// the kInvalidNode/kInvalidEdge sentinels. At the 10^7-node scale the
/// scale benchmark builds, a count that silently wrapped would corrupt
/// every downstream id; this throws CheckError up front instead
/// (test_graph.cpp pins the failure mode).
void check_graph_limits(std::size_t nodes, std::size_t edges);

/// Physical memory of the machine in bytes (the largest value when unknown).
[[nodiscard]] std::size_t physical_memory_bytes() noexcept;

/// Checks a node count before anything is sized by it: within
/// check_graph_limits, and (nodes + 1) * bytes_per_node bytes of `what`
/// within physical memory. Throws CheckError naming the figures.
void check_node_budget(std::size_t nodes, std::size_t bytes_per_node, const char* what);

/// std::allocator whose value-less construct default-initialises, so
/// resize() leaves trivial elements unwritten, for buffers whose slots are
/// all written before they are read: the CSR fill writes every slot itself,
/// in parallel, and is the first touch of each page; read_edge_list's block
/// buffer touches only the bytes the stream delivers. Any construct with
/// arguments falls through to std::construct_at.
template <typename T>
struct FillAllocator : std::allocator<T> {
  FillAllocator() = default;
  template <typename U>
  FillAllocator(const FillAllocator<U>& /*other*/) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// Puts canonical edges (u < v, any order, duplicates allowed) into the
/// canonical edge-list order: strictly increasing. A list already in that
/// order (every generator's and every written edge list's) is only checked,
/// in parallel; any other is sorted and deduplicated. GraphBuilder::build
/// and read_edge_list share this step.
void canonicalize(std::vector<Edge>& edges);
}  // namespace detail

/// Mutable accumulation of edges; build() produces the immutable CSR Graph.
/// Self-loops are rejected; duplicate edges are merged silently (generators
/// may naturally produce duplicates).
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes);

  void add_edge(NodeId a, NodeId b);
  void reserve(std::size_t edges);
  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  [[nodiscard]] Graph build() const;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

class DynamicGraph;

class Graph {
 public:
  /// Rows per row block, 2^kRowBlockShift: the unit a DynamicGraph
  /// snapshot copies when its batch edits a row (about 11 KB at degree 10).
  /// The snapshot phase measured 0.05-0.08 ms per 8-event batch at n = 5000
  /// and 0.05-0.07 ms per 1-event batch at n = 10^6 with 128 rows; 64 rows
  /// cost up to 0.11 ms at 10^6 (twice the table to copy), 256 rows up to
  /// 0.09 ms at 5000 (twice the bytes per block). A static graph's table
  /// points into its one CSR, one entry per kRowBlockRows rows of it.
  static constexpr unsigned kRowBlockShift = 7;
  static constexpr NodeId kRowBlockRows = NodeId{1} << kRowBlockShift;
  /// Slots per slot block of the id -> Edge table, 2^kSlotBlockShift.
  static constexpr unsigned kSlotBlockShift = 10;
  static constexpr EdgeId kSlotBlockSlots = EdgeId{1} << kSlotBlockShift;

  Graph() = default;

  /// Builds from a canonical, deduplicated, sorted edge list (GraphBuilder
  /// takes care of that normalization); throws CheckError on a list that is
  /// not. Large lists are checked and filled in parallel, one row range per
  /// pool worker; lists under about 2^17 edges (and calls from inside a pool
  /// body) run the same two passes inline on the caller. The CSR is the same
  /// either way: edge ids are list positions and rows are sorted.
  static Graph from_canonical_edges(NodeId num_nodes, std::vector<Edge> edges);

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Live edges.
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// One past the largest edge id (slot) in use: the size of every per-edge
  /// array (bitsets, refcounts). Equal to num_edges() for a graph built by
  /// from_canonical_edges; a DynamicGraph snapshot may have holes, slots no
  /// live edge holds.
  [[nodiscard]] std::size_t edge_id_bound() const noexcept { return edge_id_bound_; }

  /// Whether edge ids are the canonical list positions 0..m-1 (true for
  /// every graph from from_canonical_edges and for a DynamicGraph snapshot
  /// no batch has changed yet).
  [[nodiscard]] bool canonical_ids() const noexcept { return canonical_; }

  /// Sorted neighbor list of u.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    std::size_t r = 0;
    const RowBlock& b = block_of(u, r);
    return {b.adj + b.off[r], b.adj + b.off[r + 1]};
  }

  /// Edge ids parallel to neighbors(u): incident_edges(u)[i] is the id of
  /// the edge {u, neighbors(u)[i]}.
  [[nodiscard]] std::span<const EdgeId> incident_edges(NodeId u) const {
    std::size_t r = 0;
    const RowBlock& b = block_of(u, r);
    return {b.ids + b.off[r], b.ids + b.off[r + 1]};
  }

  [[nodiscard]] Dist degree(NodeId u) const noexcept {
    std::size_t r = 0;
    const RowBlock& b = block_of(u, r);
    return static_cast<Dist>(b.off[r + 1] - b.off[r]);
  }

  /// Maximum degree Delta; the paper's approximation factors are stated in
  /// terms of (1 + log Delta).
  [[nodiscard]] Dist max_degree() const noexcept { return max_degree_; }

  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const noexcept {
    return find_edge(a, b) != kInvalidEdge;
  }

  /// Id of edge {a,b}, or kInvalidEdge. O(log deg) by binary search.
  [[nodiscard]] EdgeId find_edge(NodeId a, NodeId b) const noexcept;

  /// The edge in slot `id` (id < edge_id_bound()). A hole reads as
  /// {kInvalidNode, kInvalidNode}.
  [[nodiscard]] const Edge& edge(EdgeId id) const noexcept {
    return slots_[id >> kSlotBlockShift][id & (kSlotBlockSlots - 1)];
  }

  /// The canonical edge list, indexed by id. Requires canonical_ids()
  /// (throws CheckError on a snapshot a batch has changed: its slots are
  /// not in canonical order and may have holes); for_each_edge and
  /// edge_list serve every graph.
  [[nodiscard]] std::span<const Edge> edges() const {
    REMSPAN_CHECK(canonical_ids());
    return {base_edges_, num_edges_};
  }

  /// Calls fn(edge, id) for every edge in canonical node-pair order, the
  /// order edges() lists, on any graph: walks each row's entries above its
  /// own node.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      const auto nbrs = neighbors(u);
      const auto ids = incident_edges(u);
      const auto first = std::upper_bound(nbrs.begin(), nbrs.end(), u) - nbrs.begin();
      for (auto i = static_cast<std::size_t>(first); i < nbrs.size(); ++i) {
        fn(Edge{u, nbrs[i]}, ids[i]);
      }
    }
  }

  /// The live edges in canonical order.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// Sum of degrees / n; handy for workload reporting.
  [[nodiscard]] double average_degree() const noexcept {
    return num_nodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) / static_cast<double>(num_nodes());
  }

 private:
  friend class DynamicGraph;
  struct Store;

  /// Where one row block's rows live: row b * kRowBlockRows + r spans
  /// adj[off[r], off[r + 1]) and ids[off[r], off[r + 1]).
  struct RowBlock {
    const std::size_t* off = nullptr;
    const NodeId* adj = nullptr;
    const EdgeId* ids = nullptr;
  };

  /// Points the row-block and slot-block tables into base_.
  void index_base();

  /// The block holding row u, and u's row index `r` in it.
  [[nodiscard]] const RowBlock& block_of(NodeId u, std::size_t& r) const noexcept {
    r = u & (kRowBlockRows - 1);
    return rows_[u >> kRowBlockShift];
  }

  NodeId num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  std::size_t edge_id_bound_ = 0;
  Dist max_degree_ = 0;
  /// Flat tables: one entry per row block and one pointer per slot block.
  /// No shared_ptr is touched on a read.
  std::vector<RowBlock> rows_;
  std::vector<const Edge*> slots_;
  /// The one contiguous CSR of a from_canonical_edges graph. Copies share
  /// it: a Graph's storage is immutable once built.
  std::shared_ptr<const Store> base_;
  /// base_'s edge list, listed by edges() while ids are canonical.
  const Edge* base_edges_ = nullptr;
  bool canonical_ = true;
  /// Owners of the blocks a DynamicGraph copied, one per table entry;
  /// empty, or nullptr where the entry points into base_.
  std::vector<std::shared_ptr<const void>> row_owners_;
  std::vector<std::shared_ptr<const void>> slot_owners_;
};

}  // namespace remspan
