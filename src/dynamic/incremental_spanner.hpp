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
//   1. takes the new copy-on-write snapshot and its change record from the
//      DynamicGraph it owns (removed and inserted edges with their slots;
//      an edge id is a slot that stays put while the edge is live, so
//      per-edge state carries over with no remap),
//   2. expands the dirty-root set with one multi-source bounded BFS of
//      radius dirty_radius() per side: from the removed edges' endpoints
//      in the old snapshot and the inserted ones' in the new,
//   3. retires the dirty roots' old tree edges from a per-edge refcount
//      union (refcount = how many roots' trees currently contain the edge),
//   4. re-runs only the dirty roots' tree builds through the shared
//      per-root driver (core/remote_spanner.hpp) and re-adds their edges,
//      and
//   5. flips the spanner bits of the slots whose refcount crossed 0.
//
// Every step costs the dirty balls and the batch, not O(n) or O(m).
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
#include <memory>
#include <span>
#include <vector>

#include "core/remote_spanner.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"

namespace remspan {

/// Computes the sorted set of roots within `radius` hops of a touched
/// endpoint, per side: `removed_touched` expanded only in the OLD snapshot
/// (removals dirty roots at old distances) and `inserted_touched` only in
/// the NEW one (insertions at new distances), one multi-source bounded BFS
/// per non-empty side.
///
/// This is the locality primitive shared by the whole dynamic stack: the
/// IncrementalSpanner rebuilds exactly these roots' trees per batch, and
/// the protocol-level ReconvergenceSim (src/sim/reconvergence.hpp) scopes
/// re-advertisement to the set it gets by passing every touched endpoint
/// on both sides — with radius = flood scope, these are precisely the
/// nodes whose B(u, scope) topology knowledge may have changed.
///
/// The per-side expansion is exact by the same dependency argument, one
/// direction each:
///   * a root w clean under this seeding reads no removed edge (it would
///     need an endpoint within `radius` at old distances) and no inserted
///     edge (within `radius` at new distances);
///   * therefore every <= radius path from w in either snapshot uses only
///     common edges — a new-snapshot shortcut into w's ball would put an
///     inserted endpoint inside it — so the two balls and everything the
///     deterministic tree build reads coincide, and w's tree is unchanged.
/// A removal-only batch thus costs ONE bounded BFS (the new-graph side has
/// no seeds), an insertion-only batch likewise. The set is the symmetric
/// expansion's: every changed edge has both endpoints touched, so a path
/// in either snapshot, cut at its last touched node, runs on common edges.
///
/// NOTE an edge removal outside every stored tree (union refcount 0) does
/// NOT permit skipping its ball: the greedy/MIS builds read non-tree edges
/// through their cover/independence scans, and removing one can flip a
/// pick (tests/test_incremental_spanner.cpp pins a counterexample). The
/// ROADMAP's stronger "refcount-0 removal needs no rebuild" conjecture is
/// refuted — this per-side expansion is the exact sound fast path.
///
/// @param bfs   Scratch BFS sized to the node universe.
/// @param flag  Scratch per-node byte vector; resized and cleared inside
///              (DirtyRootExpander keeps its own all zero instead, so its
///              calls skip this O(n) clear).
/// @return      Dirty roots in increasing node-id order.
[[nodiscard]] std::vector<NodeId> collect_dirty_roots_split(
    const Graph& old_graph, const Graph& new_graph, std::span<const NodeId> removed_touched,
    std::span<const NodeId> inserted_touched, Dist radius, BoundedBfs& bfs,
    std::vector<std::uint8_t>& flag);

/// collect_dirty_roots_split on private scratch sized to one node universe:
/// the flag is all zero between calls (only the dirty entries are set, and
/// reset before returning), so a call costs its balls, not O(n). The
/// IncrementalSpanner and the ReconvergenceSim each hold one.
class DirtyRootExpander {
 public:
  explicit DirtyRootExpander(NodeId num_nodes) : bfs_(num_nodes), flag_(num_nodes, 0) {}

  /// The dirty roots of collect_dirty_roots_split, over graphs of this
  /// expander's node universe.
  [[nodiscard]] std::vector<NodeId> expand(const Graph& old_graph, const Graph& new_graph,
                                           std::span<const NodeId> removed_touched,
                                           std::span<const NodeId> inserted_touched,
                                           Dist radius);

 private:
  BoundedBfs bfs_;
  std::vector<std::uint8_t> flag_;
};

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
  /// Adopts `initial` as the evolving topology (all nodes up) and builds
  /// the full spanner of `rule` on it, recording every root's tree edges
  /// and the per-edge refcounts.
  IncrementalSpanner(const Graph& initial, TreeRule rule);

  [[nodiscard]] const TreeRule& rule() const noexcept { return rule_; }

  /// The evolving topology. Only apply_batch() changes it.
  [[nodiscard]] const DynamicGraph& dynamic_graph() const noexcept { return dynamic_; }

  /// The snapshot the maintained spanner refers to, and a handle that
  /// keeps it alive through later batches.
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::shared_ptr<const Graph> graph_ptr() const noexcept { return graph_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return dynamic_.version(); }

  /// The maintained remote-spanner over graph().
  [[nodiscard]] const EdgeSet& spanner() const noexcept { return spanner_; }

  /// Applies a batch of updates to the dynamic graph and patches the
  /// spanner. Safe to call with an empty or all-no-op batch.
  ChurnBatchStats apply_batch(std::span<const GraphEvent> events);

  /// Roots rebuilt by the last apply_batch (sorted). A superset of the
  /// roots whose trees actually changed — tests assert both directions.
  [[nodiscard]] const std::vector<NodeId>& last_dirty_roots() const noexcept { return dirty_; }

  /// How many roots' trees currently contain edge `id` (a slot of the
  /// current snapshot). The spanner contains exactly the edges with
  /// refcount > 0.
  [[nodiscard]] std::uint32_t edge_refcount(EdgeId id) const {
    REMSPAN_CHECK(id < ref_.size());
    return ref_[id];
  }

  /// Current dominating-tree edges of `root` as canonical node pairs.
  [[nodiscard]] std::vector<Edge> tree_edges(NodeId root) const;

 private:
  /// Builds `roots` against graph_ through driver_, recording each tree
  /// into trees_ and ref_; returns the number of tree edges added.
  std::size_t build_trees(std::span<const NodeId> roots);

  DynamicGraph dynamic_;
  TreeRule rule_;
  std::shared_ptr<const Graph> graph_;
  /// Per-root tree edges as slots: a live edge keeps its slot across
  /// snapshots, so clean roots carry zero per-batch cost.
  std::vector<std::vector<EdgeId>> trees_;
  /// Per-slot tree refcount, sized to the snapshot's edge_id_bound().
  /// Updated concurrently (std::atomic_ref) during the rebuild phase.
  std::vector<std::uint32_t> ref_;
  EdgeSet spanner_;
  /// spanner_.size(), kept by the bit flips instead of a popcount per batch.
  std::size_t spanner_edges_ = 0;
  TreeUnionDriver driver_;
  std::vector<NodeId> dirty_;
  DirtyRootExpander expander_;
};

}  // namespace remspan
