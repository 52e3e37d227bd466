// IncrementalSpanner: maintains a remote-spanner across a stream of graph
// updates without rebuilding from scratch.
//
// The locality that makes the per-root dominating trees embarrassingly
// parallel also makes them incrementally maintainable: the tree of root u
// is a deterministic function of the edges with an endpoint at BFS depth
// <= TreeRule::dirty_radius() from u (core/remote_spanner.hpp derives the
// bound). An edge flip {a,b} can therefore only change trees whose root
// lies within dirty_radius() = max(1, r+beta-1) of a or b (at old
// distances for removals, new ones for insertions). The engine maintains
// any TreeRule — the three theorem constructions and the OLSR MPR union
// alike. Per batch of updates the engine
//
//   1. diffs the old and new snapshots (diff_graphs: exact edge delta plus
//      the old-id -> new-id map),
//   2. expands the dirty-root set with one multi-source bounded BFS of
//      radius dirty_radius() from the touched endpoints in each snapshot,
//   3. retires the dirty roots' old tree edges from a per-edge refcount
//      union (refcount = how many roots' trees currently contain the edge),
//      remaps the surviving refcounts into the new edge-id space,
//   4. re-runs only the dirty roots' tree builds through the shared
//      per-root driver (core/remote_spanner.hpp) and re-adds their edges,
//      and
//   5. re-derives the spanner bitset as {e : refcount[e] > 0}.
//
// Equivalence guarantee: after every batch the maintained spanner is
// bit-exact equal to a from-scratch build on the same snapshot
// (tests/test_incremental_spanner.cpp pins this across graph families,
// seeds, parameters and batch sizes). Clean roots' trees cannot have
// changed — every changed edge has both endpoints beyond dirty_radius()
// from their root in both snapshots, so everything their deterministic
// tree build reads is identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/remote_spanner.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"

namespace remspan {

/// Computes the sorted set of roots within `radius` hops of a touched
/// endpoint in either snapshot (removals dirty roots at old distances,
/// insertions at new ones) with one multi-source bounded BFS per snapshot.
///
/// This is the locality primitive shared by the whole dynamic stack: the
/// IncrementalSpanner rebuilds exactly these roots' trees per batch, and
/// the protocol-level ReconvergenceSim (src/sim/reconvergence.hpp) scopes
/// re-advertisement to the same set — with radius = flood scope, these are
/// precisely the nodes whose B(u, scope) topology knowledge may have
/// changed.
///
/// @param old_graph  Snapshot before the batch (same node universe as new).
/// @param new_graph  Snapshot after the batch.
/// @param touched    Endpoints of the changed edges (touched_endpoints()).
/// @param radius     Ball radius of the expansion, in hops.
/// @param bfs        Scratch BFS sized to the node universe (reused across
///                   batches to avoid reallocation).
/// @param flag       Scratch per-node byte vector; resized/cleared inside.
/// @return           Dirty roots in increasing node-id order.
[[nodiscard]] std::vector<NodeId> collect_dirty_roots(const Graph& old_graph,
                                                      const Graph& new_graph,
                                                      std::span<const NodeId> touched, Dist radius,
                                                      BoundedBfs& bfs,
                                                      std::vector<std::uint8_t>& flag);

/// Per-side variant — the decremental/incremental fast path: expands
/// `removed_touched` only in the OLD snapshot and `inserted_touched` only
/// in the NEW one. Exact by the same dependency argument as above, one
/// direction each:
///   * a root w clean under this seeding reads no removed edge (it would
///     need an endpoint within `radius` at old distances) and no inserted
///     edge (within `radius` at new distances);
///   * therefore every <= radius path from w in either snapshot uses only
///     common edges — a new-snapshot shortcut into w's ball would put an
///     inserted endpoint inside it — so the two balls and everything the
///     deterministic tree build reads coincide, and w's tree is unchanged.
/// A removal-only batch thus costs ONE bounded BFS (the new-graph side has
/// no seeds), an insertion-only batch likewise, and mixed batches get a
/// strictly smaller dirty set than the symmetric expansion.
///
/// NOTE an edge removal outside every stored tree (union refcount 0) does
/// NOT permit skipping its ball: the greedy/MIS builds read non-tree edges
/// through their cover/independence scans, and removing one can flip a
/// pick (tests/test_incremental_spanner.cpp pins a counterexample). The
/// ROADMAP's stronger "refcount-0 removal needs no rebuild" conjecture is
/// refuted — this per-side expansion is the exact sound fast path.
[[nodiscard]] std::vector<NodeId> collect_dirty_roots_split(
    const Graph& old_graph, const Graph& new_graph, std::span<const NodeId> removed_touched,
    std::span<const NodeId> inserted_touched, Dist radius, BoundedBfs& bfs,
    std::vector<std::uint8_t>& flag);

/// Per-batch accounting, reported by bench_churn and the remspan_tool
/// churn-replay mode.
struct ChurnBatchStats {
  std::uint64_t version = 0;        ///< DynamicGraph version after the batch
  std::size_t applied_events = 0;   ///< events that actually changed state
  std::size_t inserted_edges = 0;   ///< live-edge insertions vs previous snapshot
  std::size_t removed_edges = 0;    ///< live-edge removals vs previous snapshot
  std::size_t touched_nodes = 0;    ///< endpoints seeding the dirty expansion
  std::size_t dirty_roots = 0;      ///< roots whose trees were rebuilt
  std::size_t retired_tree_edges = 0;  ///< tree edges dropped from the refcount union
  std::size_t rebuilt_tree_edges = 0;  ///< tree edges re-added by the rebuilds
  std::size_t spanner_edges = 0;    ///< |H| after the batch
  double seconds = 0.0;             ///< wall time of the whole batch
};

class IncrementalSpanner {
 public:
  /// Builds the full spanner of `rule` on the dynamic graph's current
  /// snapshot, recording every root's tree edges and the per-edge
  /// refcounts. The DynamicGraph must outlive the engine.
  IncrementalSpanner(DynamicGraph& graph, TreeRule rule);

  [[nodiscard]] const TreeRule& rule() const noexcept { return rule_; }

  /// The snapshot the maintained spanner refers to.
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The maintained remote-spanner over graph().
  [[nodiscard]] const EdgeSet& spanner() const noexcept { return spanner_; }

  /// Applies a batch of updates to the dynamic graph and patches the
  /// spanner. Safe to call with an empty or all-no-op batch.
  ChurnBatchStats apply_batch(std::span<const GraphEvent> events);

  /// Roots rebuilt by the last apply_batch (sorted). A superset of the
  /// roots whose trees actually changed — tests assert both directions.
  [[nodiscard]] const std::vector<NodeId>& last_dirty_roots() const noexcept { return dirty_; }

  /// How many roots' trees currently contain edge `id` (current snapshot's
  /// id space). The spanner contains exactly the edges with refcount > 0.
  [[nodiscard]] std::uint32_t edge_refcount(EdgeId id) const {
    REMSPAN_CHECK(id < ref_.size());
    return ref_[id];
  }

  /// Current dominating-tree edges of `root` as canonical node pairs.
  [[nodiscard]] const std::vector<Edge>& tree_edges(NodeId root) const {
    REMSPAN_CHECK(root < trees_.size());
    return trees_[root];
  }

 private:
  /// Builds `roots` against graph_ through driver_, recording each tree
  /// into trees_ and ref_; returns the number of tree edges added.
  std::size_t build_trees(std::span<const NodeId> roots);
  void rebuild_spanner_bits();

  DynamicGraph* dynamic_;
  TreeRule rule_;
  std::shared_ptr<const Graph> graph_;
  std::uint64_t version_ = 0;
  /// Per-root tree edges as node pairs: stable across snapshots, so clean
  /// roots carry zero per-batch cost (edge ids would need remapping).
  std::vector<std::vector<Edge>> trees_;
  /// Per-edge tree refcount in the current snapshot's id space. Updated
  /// concurrently (std::atomic_ref) during the retire/rebuild phases.
  std::vector<std::uint32_t> ref_;
  EdgeSet spanner_;
  TreeUnionDriver driver_;
  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  BoundedBfs dirty_bfs_;
};

}  // namespace remspan
