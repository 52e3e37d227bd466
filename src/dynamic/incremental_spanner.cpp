#include "dynamic/incremental_spanner.hpp"

#include <algorithm>
#include <atomic>

#include "graph/locality_order.hpp"
#include "graph/views.hpp"
#include "obs/obs.hpp"

namespace remspan {

namespace {

/// The expansion on a `flag` that is all zero on entry, sized to the node
/// universe: only the dirty entries are set, and they are reset before
/// returning.
std::vector<NodeId> expand_dirty_roots(const Graph& old_graph, const Graph& new_graph,
                                       std::span<const NodeId> removed_touched,
                                       std::span<const NodeId> inserted_touched, Dist radius,
                                       BoundedBfs& bfs, std::vector<std::uint8_t>& flag) {
  REMSPAN_CHECK(old_graph.num_nodes() == new_graph.num_nodes());
  REMSPAN_CHECK(flag.size() == old_graph.num_nodes());
  std::vector<NodeId> dirty;
  const auto mark = [&](const std::vector<NodeId>& ball) {
    for (const NodeId v : ball) {
      if (flag[v] == 0) {
        flag[v] = 1;
        dirty.push_back(v);
      }
    }
  };
  // Per-side expansion cost: how many nodes each dependency-ball sweep
  // visits is the telemetry that tells removal-heavy from insertion-heavy
  // batches apart (docs/OBSERVABILITY.md).
  obs::Registry* m = obs::metrics();
  if (!removed_touched.empty()) {
    const std::vector<NodeId>& old_ball =
        bfs.run_multi(GraphView(old_graph), removed_touched, radius);
    if (m != nullptr) m->counter("inc.expand_old_nodes").add(old_ball.size());
    mark(old_ball);
  }
  if (!inserted_touched.empty()) {
    const std::vector<NodeId>& new_ball =
        bfs.run_multi(GraphView(new_graph), inserted_touched, radius);
    if (m != nullptr) m->counter("inc.expand_new_nodes").add(new_ball.size());
    mark(new_ball);
  }
  for (const NodeId v : dirty) flag[v] = 0;
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

}  // namespace

std::vector<NodeId> collect_dirty_roots_split(const Graph& old_graph, const Graph& new_graph,
                                              std::span<const NodeId> removed_touched,
                                              std::span<const NodeId> inserted_touched,
                                              Dist radius, BoundedBfs& bfs,
                                              std::vector<std::uint8_t>& flag) {
  flag.assign(old_graph.num_nodes(), 0);
  return expand_dirty_roots(old_graph, new_graph, removed_touched, inserted_touched, radius, bfs,
                            flag);
}

std::vector<NodeId> DirtyRootExpander::expand(const Graph& old_graph, const Graph& new_graph,
                                              std::span<const NodeId> removed_touched,
                                              std::span<const NodeId> inserted_touched,
                                              Dist radius) {
  return expand_dirty_roots(old_graph, new_graph, removed_touched, inserted_touched, radius, bfs_,
                            flag_);
}

IncrementalSpanner::IncrementalSpanner(const Graph& initial, TreeRule rule)
    : dynamic_(initial),
      rule_(rule),
      graph_(dynamic_.snapshot()),
      trees_(graph_->num_nodes()),
      ref_(graph_->edge_id_bound(), 0),
      spanner_(*graph_),
      driver_(*graph_),
      expander_(graph_->num_nodes()) {
  build_trees(locality_root_order(*graph_, kLocalityCluster));
  DynamicBitset bits(graph_->edge_id_bound());
  for (EdgeId id = 0; id < ref_.size(); ++id) {
    if (ref_[id] > 0) bits.set(id);
  }
  spanner_ = EdgeSet(*graph_, std::move(bits));
  spanner_edges_ = spanner_.size();
}

std::vector<Edge> IncrementalSpanner::tree_edges(NodeId root) const {
  REMSPAN_CHECK(root < trees_.size());
  std::vector<Edge> out;
  out.reserve(trees_[root].size());
  for (const EdgeId id : trees_[root]) out.push_back(graph_->edge(id));
  return out;
}

std::size_t IncrementalSpanner::build_trees(std::span<const NodeId> roots) {
  std::atomic<std::size_t> built{0};
  driver_.run(
      roots, rule_,
      // record_tree: store the tree's parent-edge slots and bump their
      // shared refcounts.
      [&](NodeId root, const RootedTree& tree, std::size_t /*worker*/) {
        std::vector<EdgeId>& out = trees_[root];
        const std::span<const EdgeId> ids = tree.parent_edges();
        out.assign(ids.begin(), ids.end());
        for (const EdgeId id : out) {
          REMSPAN_CHECK(id != kInvalidEdge);
          std::atomic_ref<std::uint32_t>(ref_[id]).fetch_add(1, std::memory_order_relaxed);
        }
        built.fetch_add(out.size(), std::memory_order_relaxed);
      });
  return built.load();
}

ChurnBatchStats IncrementalSpanner::apply_batch(std::span<const GraphEvent> events) {
  obs::PhaseSpan span("inc.apply_batch", "dynamic");
  ChurnBatchStats stats;
  dirty_.clear();
  const std::shared_ptr<const Graph> old_graph = graph_;
  std::shared_ptr<const Graph> new_graph;
  {
    obs::PhaseSpan phase("dynamic.snapshot", "dynamic");
    stats.applied_events = dynamic_.apply_all(events);
    stats.version = dynamic_.version();
    new_graph = dynamic_.snapshot();
  }
  const GraphDelta& delta = dynamic_.last_change();
  if (delta.empty()) {
    // No live-topology change (all no-ops, or updates masked by down
    // nodes): no new snapshot, and the spanner stands as-is.
    stats.spanner_edges = spanner_edges_;
    stats.seconds = span.seconds();
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
  {
    obs::PhaseSpan phase("inc.expand", "dynamic");
    stats.touched_nodes = touched_endpoints(delta).size();
    dirty_ = expander_.expand(*old_graph, *new_graph, removed_endpoints(delta),
                              inserted_endpoints(delta), rule_.dirty_radius());
  }
  stats.dirty_roots = dirty_.size();

  // Retire: drop the dirty roots' old tree edges from the refcount union;
  // a slot whose count falls to 0 leaves the spanner. One pass over the
  // retired edges, on the caller: it is a few decrements per dirty root.
  DynamicBitset bits = std::move(spanner_).release_bits();
  {
    obs::PhaseSpan phase("inc.retire", "dynamic");
    for (const NodeId root : dirty_) {
      for (const EdgeId id : trees_[root]) {
        if (--ref_[id] == 0) {
          bits.reset(id);
          --spanner_edges_;
        }
      }
      stats.retired_tree_edges += trees_[root].size();
    }
    // Every tree is contained in its root's dirty ball, so a removed edge
    // can only have been owned by dirty roots — all retired by now. A
    // nonzero count here would mean the dirty set missed an owner.
    for (const EdgeId old_id : delta.removed_old_ids) {
      REMSPAN_CHECK(ref_[old_id] == 0);
    }
  }

  // Rebuild the dirty roots' trees against the new snapshot with the
  // persistent builders, re-adding their edges to the refcount union.
  graph_ = new_graph;
  ref_.resize(graph_->edge_id_bound(), 0);
  bits.resize(graph_->edge_id_bound());
  {
    obs::PhaseSpan phase("inc.rebuild", "dynamic");
    driver_.rebind(*graph_);
    stats.rebuilt_tree_edges = build_trees(dirty_);
  }

  // Publish: every rebuilt tree edge has refcount > 0, so its bit is set
  // (a slot whose count rose from 0 enters the spanner).
  {
    obs::PhaseSpan phase("inc.publish", "dynamic");
    for (const NodeId root : dirty_) {
      for (const EdgeId id : trees_[root]) {
        if (!bits.test(id)) {
          bits.set(id);
          ++spanner_edges_;
        }
      }
    }
    spanner_ = EdgeSet(*graph_, std::move(bits));
    stats.spanner_edges = spanner_edges_;
  }
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
