#include "dynamic/incremental_spanner.hpp"

#include <atomic>

#include "graph/locality_order.hpp"
#include "graph/views.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

std::vector<NodeId> collect_dirty_roots(const Graph& old_graph, const Graph& new_graph,
                                        std::span<const NodeId> touched, Dist radius,
                                        BoundedBfs& bfs, std::vector<std::uint8_t>& flag) {
  return collect_dirty_roots_split(old_graph, new_graph, touched, touched, radius, bfs, flag);
}

std::vector<NodeId> collect_dirty_roots_split(const Graph& old_graph, const Graph& new_graph,
                                              std::span<const NodeId> removed_touched,
                                              std::span<const NodeId> inserted_touched,
                                              Dist radius, BoundedBfs& bfs,
                                              std::vector<std::uint8_t>& flag) {
  REMSPAN_CHECK(old_graph.num_nodes() == new_graph.num_nodes());
  flag.assign(old_graph.num_nodes(), 0);
  // Per-side expansion cost: how many nodes each dependency-ball sweep
  // visits is the telemetry that tells removal-heavy from insertion-heavy
  // batches apart (docs/OBSERVABILITY.md).
  obs::Registry* m = obs::metrics();
  if (!removed_touched.empty()) {
    const std::vector<NodeId>& old_ball =
        bfs.run_multi(GraphView(old_graph), removed_touched, radius);
    if (m != nullptr) m->counter("inc.expand_old_nodes").add(old_ball.size());
    for (const NodeId v : old_ball) flag[v] = 1;
  }
  if (!inserted_touched.empty()) {
    const std::vector<NodeId>& new_ball =
        bfs.run_multi(GraphView(new_graph), inserted_touched, radius);
    if (m != nullptr) m->counter("inc.expand_new_nodes").add(new_ball.size());
    for (const NodeId v : new_ball) flag[v] = 1;
  }
  std::vector<NodeId> dirty;
  for (NodeId v = 0; v < flag.size(); ++v) {
    if (flag[v] != 0) dirty.push_back(v);
  }
  return dirty;
}

IncrementalSpanner::IncrementalSpanner(DynamicGraph& graph, TreeRule rule)
    : dynamic_(&graph),
      rule_(rule),
      graph_(graph.snapshot()),
      version_(graph.version()),
      trees_(graph_->num_nodes()),
      ref_(graph_->num_edges(), 0),
      spanner_(*graph_),
      driver_(*graph_),
      dirty_flag_(graph.num_nodes(), 0),
      dirty_bfs_(graph.num_nodes()) {
  build_trees(locality_root_order(*graph_, kLocalityCluster));
  rebuild_spanner_bits();
}

std::size_t IncrementalSpanner::build_trees(std::span<const NodeId> roots) {
  std::atomic<std::size_t> built{0};
  driver_.run(
      roots, rule_,
      // record_tree: store the tree as canonical node pairs and bump the
      // shared refcounts through its recorded parent-edge ids (valid in the
      // graph the tree was built on).
      [&](NodeId root, const RootedTree& tree, std::size_t /*worker*/) {
        std::vector<Edge>& out = trees_[root];
        out.clear();
        for (const NodeId v : tree.nodes()) {
          if (v == tree.root()) continue;
          out.push_back(make_edge(v, tree.parent(v)));
          const EdgeId id = tree.parent_edge(v);
          REMSPAN_CHECK(id != kInvalidEdge);
          std::atomic_ref<std::uint32_t>(ref_[id]).fetch_add(1, std::memory_order_relaxed);
        }
        built.fetch_add(out.size(), std::memory_order_relaxed);
      });
  return built.load();
}

void IncrementalSpanner::rebuild_spanner_bits() {
  DynamicBitset bits(graph_->num_edges());
  for (EdgeId id = 0; id < ref_.size(); ++id) {
    if (ref_[id] > 0) bits.set(id);
  }
  spanner_ = EdgeSet(*graph_, std::move(bits));
}

ChurnBatchStats IncrementalSpanner::apply_batch(std::span<const GraphEvent> events) {
  obs::PhaseSpan span("inc.apply_batch", "dynamic");
  ChurnBatchStats stats;
  stats.applied_events = dynamic_->apply_all(events);
  stats.version = dynamic_->version();
  dirty_.clear();

  const std::shared_ptr<const Graph> old_graph = graph_;
  const std::shared_ptr<const Graph> new_graph = dynamic_->snapshot();
  const GraphDelta delta = diff_graphs(*old_graph, *new_graph);
  if (delta.empty()) {
    // No live-topology change (all no-ops, or updates masked by down
    // nodes): the spanner — and the old snapshot's id space — stand as-is.
    stats.spanner_edges = spanner_.size();
    stats.seconds = span.seconds();
    version_ = stats.version;
    if (obs::Registry* m = obs::metrics()) m->counter("inc.noop_batches").add(1);
    return stats;
  }
  stats.removed_edges = delta.removed.size();
  stats.inserted_edges = delta.inserted.size();

  // Dirty roots, one bounded BFS per side with a changed edge: removals
  // matter at OLD distances (the stored trees read them there), insertions
  // at NEW ones. A removal-only batch — the decremental fast path — costs
  // a single old-snapshot BFS and an insertion-only batch the mirror; see
  // collect_dirty_roots_split for why the per-side expansion stays exact.
  const std::vector<NodeId> touched = touched_endpoints(delta);
  stats.touched_nodes = touched.size();
  dirty_ = collect_dirty_roots_split(*old_graph, *new_graph, removed_endpoints(delta),
                                     inserted_endpoints(delta), rule_.dirty_radius(),
                                     dirty_bfs_, dirty_flag_);
  stats.dirty_roots = dirty_.size();

  // Phase 1 — retire: drop the dirty roots' old tree edges from the
  // refcount union (still in the old snapshot's id space; the stored node
  // pairs resolve through the old adjacency).
  std::atomic<std::size_t> retired{0};
  ThreadPool::global().parallel_for(0, dirty_.size(), [&](std::size_t i) {
    const NodeId root = dirty_[i];
    for (const Edge& e : trees_[root]) {
      const EdgeId id = old_graph->find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      std::atomic_ref<std::uint32_t>(ref_[id]).fetch_sub(1, std::memory_order_relaxed);
    }
    retired.fetch_add(trees_[root].size(), std::memory_order_relaxed);
  });
  stats.retired_tree_edges = retired.load();

  // Every tree is contained in its root's dirty ball, so a removed edge
  // can only have been owned by dirty roots — all retired by now. A
  // nonzero count here would mean the dirty set missed an owner.
  for (const EdgeId old_id : delta.removed_old_ids) {
    REMSPAN_CHECK(ref_[old_id] == 0);
  }

  // Phase 2 — remap the surviving refcounts into the new id space.
  std::vector<std::uint32_t> new_ref(new_graph->num_edges(), 0);
  for (EdgeId old_id = 0; old_id < ref_.size(); ++old_id) {
    const EdgeId new_id = delta.old_to_new[old_id];
    if (new_id != kInvalidEdge) new_ref[new_id] = ref_[old_id];
  }
  ref_ = std::move(new_ref);

  // Phase 3 — rebuild the dirty roots' trees against the new snapshot with
  // the persistent builders, re-adding their edges to the refcount union.
  graph_ = new_graph;
  version_ = stats.version;
  driver_.rebind(*graph_);
  stats.rebuilt_tree_edges = build_trees(dirty_);

  // Phase 4 — publish: the spanner is exactly the positively-refcounted
  // edge set over the new snapshot.
  rebuild_spanner_bits();
  stats.spanner_edges = spanner_.size();
  stats.seconds = span.seconds();
  if (obs::Registry* m = obs::metrics()) {
    m->counter("inc.batches").add(1);
    m->counter("inc.dirty_roots").add(stats.dirty_roots);
    m->counter("inc.retired_tree_edges").add(stats.retired_tree_edges);
    m->counter("inc.rebuilt_tree_edges").add(stats.rebuilt_tree_edges);
    // Refcount churn: every retire is one fetch_sub, every rebuilt tree
    // edge one fetch_add on the shared per-edge refcounts.
    m->counter("inc.refcount_churn").add(stats.retired_tree_edges + stats.rebuilt_tree_edges);
    m->histogram("inc.dirty_roots_per_batch").record(stats.dirty_roots);
  }
  return stats;
}

}  // namespace remspan
