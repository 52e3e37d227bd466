#include "dynamic/dynamic_graph.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace remspan {

/// A row block a snapshot copied: its rows' local offsets (one more than
/// its row count), neighbors and slots.
struct DynamicGraph::RowStore {
  std::vector<std::size_t> off;
  std::vector<NodeId> adj;
  std::vector<EdgeId> ids;
};

namespace {

/// Sorted-row insertion; returns false when already present.
bool row_insert(std::vector<NodeId>& row, NodeId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it != row.end() && *it == v) return false;
  row.insert(it, v);
  return true;
}

/// Sorted-row erasure; returns false when absent.
bool row_erase(std::vector<NodeId>& row, NodeId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return false;
  row.erase(it);
  return true;
}

NodeId checked_node_count(NodeId num_nodes) {
  detail::check_node_budget(num_nodes, DynamicGraph::kBytesPerNode, "per-node state");
  return num_nodes;
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : DynamicGraph(Graph::from_canonical_edges(checked_node_count(num_nodes), {})) {}

DynamicGraph::DynamicGraph(const Graph& initial)
    : n_(initial.num_nodes()),
      adj_(initial.num_nodes()),
      up_(initial.num_nodes(), 1),
      stored_edges_(initial.num_edges()),
      snapshot_(std::make_shared<const Graph>(initial)) {
  for (NodeId u = 0; u < n_; ++u) {
    const auto nbrs = initial.neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());  // Graph rows are sorted
    if (nbrs.size() >= degree_rows_.size()) degree_rows_.resize(nbrs.size() + 1, 0);
    ++degree_rows_[nbrs.size()];
  }
}

bool DynamicGraph::has_edge(NodeId a, NodeId b) const {
  REMSPAN_CHECK(a < n_ && b < n_ && a != b);
  return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
}

bool DynamicGraph::edge_live(const Edge& e) const {
  return up_[e.u] != 0 && up_[e.v] != 0 &&
         std::binary_search(adj_[e.u].begin(), adj_[e.u].end(), e.v);
}

bool DynamicGraph::apply(const GraphEvent& event) {
  bool changed = false;
  switch (event.kind) {
    case GraphEventKind::kEdgeUp:
      REMSPAN_CHECK(event.u < n_ && event.v < n_ && event.u != event.v);
      changed = row_insert(adj_[event.u], event.v);
      if (changed) {
        row_insert(adj_[event.v], event.u);
        ++stored_edges_;
        pending_edges_.push_back(make_edge(event.u, event.v));
      }
      break;
    case GraphEventKind::kEdgeDown:
      REMSPAN_CHECK(event.u < n_ && event.v < n_ && event.u != event.v);
      changed = row_erase(adj_[event.u], event.v);
      if (changed) {
        row_erase(adj_[event.v], event.u);
        --stored_edges_;
        pending_edges_.push_back(make_edge(event.u, event.v));
      }
      break;
    case GraphEventKind::kNodeUp:
      REMSPAN_CHECK(event.u < n_);
      changed = up_[event.u] == 0;
      up_[event.u] = 1;
      if (changed) pending_nodes_.push_back(event.u);
      break;
    case GraphEventKind::kNodeDown:
      REMSPAN_CHECK(event.u < n_);
      changed = up_[event.u] != 0;
      up_[event.u] = 0;
      if (changed) pending_nodes_.push_back(event.u);
      break;
  }
  if (changed) ++version_;
  return changed;
}

std::size_t DynamicGraph::apply_all(std::span<const GraphEvent> events) {
  std::size_t changed = 0;
  for (const GraphEvent& e : events) changed += apply(e) ? 1 : 0;
  return changed;
}

EdgeId DynamicGraph::take_slot(std::size_t& bound) {
  if (!free_slots_.empty()) {
    const EdgeId slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  detail::check_graph_limits(n_, bound + 1);
  return static_cast<EdgeId>(bound++);
}

std::shared_ptr<const Graph> DynamicGraph::snapshot() {
  if (snapshot_version_ == version_) {
    change_ = GraphDelta{};
    return snapshot_;
  }
  // Only edges named by an event since the last snapshot (directly, or
  // through a liveness toggle of an endpoint) can have changed live state.
  std::vector<Edge> candidates = std::move(pending_edges_);
  for (const NodeId v : pending_nodes_) {
    for (const NodeId w : adj_[v]) candidates.push_back(make_edge(v, w));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  pending_edges_.clear();
  pending_nodes_.clear();

  // Slots the current snapshot freed become free now; the ones this batch
  // frees wait for the next snapshot, so no slot holds two edges in two
  // consecutive versions. Survivors keep their slots.
  free_slots_.insert(free_slots_.end(), freed_slots_.begin(), freed_slots_.end());
  freed_slots_.clear();
  const Graph& prev = *snapshot_;
  std::size_t bound = prev.edge_id_bound();
  GraphDelta change;
  for (const Edge& e : candidates) {
    const EdgeId before = prev.find_edge(e.u, e.v);
    const bool live = edge_live(e);
    if (before != kInvalidEdge && !live) {
      change.removed.push_back(e);
      change.removed_old_ids.push_back(before);
      freed_slots_.push_back(before);
    } else if (before == kInvalidEdge && live) {
      change.inserted.push_back(e);
      change.inserted_new_ids.push_back(take_slot(bound));
    }
  }
  if (!change.empty()) {
    Graph next = next_version(prev, change);
    next.edge_id_bound_ = bound;
    snapshot_ = std::make_shared<const Graph>(std::move(next));
  }
  change_ = std::move(change);
  snapshot_version_ = version_;
  return snapshot_;
}

Graph DynamicGraph::next_version(const Graph& prev, const GraphDelta& change) {
  Graph next = prev;
  next.canonical_ = false;
  next.num_edges_ = prev.num_edges_ + change.inserted.size() - change.removed.size();
  if (next.row_owners_.empty()) next.row_owners_.resize(next.rows_.size());

  // Row edits, both directions of every changed edge, grouped by row and
  // sorted by neighbor: (row, neighbor, slot), slot = kInvalidEdge erases.
  struct RowEdit {
    NodeId row;
    NodeId neighbor;
    EdgeId slot;
  };
  std::vector<RowEdit> edits;
  edits.reserve(2 * (change.removed.size() + change.inserted.size()));
  for (const Edge& e : change.removed) {
    edits.push_back({e.u, e.v, kInvalidEdge});
    edits.push_back({e.v, e.u, kInvalidEdge});
  }
  for (std::size_t i = 0; i < change.inserted.size(); ++i) {
    const Edge& e = change.inserted[i];
    edits.push_back({e.u, e.v, change.inserted_new_ids[i]});
    edits.push_back({e.v, e.u, change.inserted_new_ids[i]});
  }
  std::sort(edits.begin(), edits.end(), [](const RowEdit& a, const RowEdit& b) {
    return a.row != b.row ? a.row < b.row : a.neighbor < b.neighbor;
  });

  // Each touched row block is copied once: the unedited runs of its
  // entries in bulk, the edits merged in at their positions.
  for (std::size_t i = 0; i < edits.size();) {
    const std::size_t block = edits[i].row >> Graph::kRowBlockShift;
    const std::size_t first = block << Graph::kRowBlockShift;
    const std::size_t rows = std::min<std::size_t>(Graph::kRowBlockRows, n_ - first);
    const Graph::RowBlock view = prev.rows_[block];
    std::size_t inserts = 0;
    for (std::size_t k = i; k < edits.size() && edits[k].row < first + rows; ++k) {
      inserts += edits[k].slot == kInvalidEdge ? 0 : 1;
    }
    auto store = std::make_shared<RowStore>();
    store->off.resize(rows + 1, 0);
    store->adj.reserve(view.off[rows] - view.off[0] + inserts);
    store->ids.reserve(view.off[rows] - view.off[0] + inserts);
    std::size_t src = view.off[0];  // next old entry to copy
    const auto copy_to = [&](std::size_t end) {
      store->adj.insert(store->adj.end(), view.adj + src, view.adj + end);
      store->ids.insert(store->ids.end(), view.ids + src, view.ids + end);
      src = end;
    };
    for (std::size_t r = 0; r < rows; ++r) {
      const auto x = static_cast<NodeId>(first + r);
      if (i < edits.size() && edits[i].row == x) {
        const std::size_t old_degree = view.off[r + 1] - view.off[r];
        const std::size_t row_start = store->adj.size() + (view.off[r] - src);
        for (; i < edits.size() && edits[i].row == x; ++i) {
          const NodeId* pos = std::lower_bound(view.adj + std::max(src, view.off[r]),
                                               view.adj + view.off[r + 1], edits[i].neighbor);
          copy_to(static_cast<std::size_t>(pos - view.adj));
          if (edits[i].slot == kInvalidEdge) {
            REMSPAN_CHECK(src < view.off[r + 1] && view.adj[src] == edits[i].neighbor);
            ++src;
          } else {
            store->adj.push_back(edits[i].neighbor);
            store->ids.push_back(edits[i].slot);
          }
        }
        copy_to(view.off[r + 1]);
        const std::size_t degree = store->adj.size() - row_start;
        --degree_rows_[old_degree];
        if (degree >= degree_rows_.size()) degree_rows_.resize(degree + 1, 0);
        ++degree_rows_[degree];
        store->off[r + 1] = store->adj.size();
      } else {
        // Unedited: its end moves by the edits before it in the block.
        store->off[r + 1] = store->adj.size() + (view.off[r + 1] - src);
      }
    }
    copy_to(view.off[rows]);
    obs::count("dynamic.blocks_copied");
    obs::count("dynamic.bytes_copied", (rows + 1) * sizeof(std::size_t) +
                                           store->adj.size() * (sizeof(NodeId) + sizeof(EdgeId)));
    next.rows_[block] = Graph::RowBlock{store->off.data(), store->adj.data(), store->ids.data()};
    next.row_owners_[block] = std::move(store);
  }
  next.max_degree_ = static_cast<Dist>(degree_rows_.size() - 1);
  while (next.max_degree_ > 0 && degree_rows_[next.max_degree_] == 0) --next.max_degree_;

  // Each touched slot block is copied once: inserted slots take their
  // edge, removed ones become holes. Slots below the old bound are backed
  // in every block; the rest of a new or copied block starts as holes.
  std::vector<Edge*> copied(next.slots_.size(), nullptr);
  const auto slot_ref = [&](EdgeId slot) -> Edge& {
    const std::size_t block = slot >> Graph::kSlotBlockShift;
    if (block >= next.slots_.size()) {
      next.slots_.resize(block + 1, nullptr);
      next.slot_owners_.resize(block + 1);
      copied.resize(block + 1, nullptr);
    }
    if (copied[block] == nullptr) {
      auto store = std::make_shared<std::vector<Edge>>(Graph::kSlotBlockSlots, Edge{});
      const std::size_t first = block << Graph::kSlotBlockShift;
      if (prev.edge_id_bound_ > first) {
        std::copy_n(prev.slots_[block],
                    std::min<std::size_t>(Graph::kSlotBlockSlots, prev.edge_id_bound_ - first),
                    store->begin());
      }
      obs::count("dynamic.blocks_copied");
      obs::count("dynamic.bytes_copied", Graph::kSlotBlockSlots * sizeof(Edge));
      copied[block] = store->data();
      next.slots_[block] = store->data();
      next.slot_owners_[block] = std::move(store);
    }
    return copied[block][slot & (Graph::kSlotBlockSlots - 1)];
  };
  if (next.slot_owners_.size() < next.slots_.size()) next.slot_owners_.resize(next.slots_.size());
  for (const EdgeId slot : change.removed_old_ids) slot_ref(slot) = Edge{};
  for (std::size_t i = 0; i < change.inserted.size(); ++i) {
    slot_ref(change.inserted_new_ids[i]) = change.inserted[i];
  }
  return next;
}

GraphDelta diff_graphs(const Graph& old_graph, const Graph& new_graph) {
  REMSPAN_CHECK(old_graph.num_nodes() == new_graph.num_nodes());
  GraphDelta delta;
  // Row u's neighbors above u, in both graphs, are the edges (u, w) in
  // canonical order; merging them row by row walks both edge lists.
  for (NodeId u = 0; u < old_graph.num_nodes(); ++u) {
    const auto old_nbrs = old_graph.neighbors(u);
    const auto old_ids = old_graph.incident_edges(u);
    const auto new_nbrs = new_graph.neighbors(u);
    const auto new_ids = new_graph.incident_edges(u);
    auto i = static_cast<std::size_t>(
        std::upper_bound(old_nbrs.begin(), old_nbrs.end(), u) - old_nbrs.begin());
    auto j = static_cast<std::size_t>(
        std::upper_bound(new_nbrs.begin(), new_nbrs.end(), u) - new_nbrs.begin());
    while (i < old_nbrs.size() || j < new_nbrs.size()) {
      if (j == new_nbrs.size() || (i < old_nbrs.size() && old_nbrs[i] < new_nbrs[j])) {
        delta.removed.push_back(Edge{u, old_nbrs[i]});
        delta.removed_old_ids.push_back(old_ids[i]);
        ++i;
      } else if (i == old_nbrs.size() || new_nbrs[j] < old_nbrs[i]) {
        delta.inserted.push_back(Edge{u, new_nbrs[j]});
        delta.inserted_new_ids.push_back(new_ids[j]);
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  return delta;
}

namespace {

/// Sorted unique endpoints of the edges of both lists.
std::vector<NodeId> endpoints_of(std::span<const Edge> edges, std::span<const Edge> more = {}) {
  std::vector<NodeId> out;
  out.reserve(2 * (edges.size() + more.size()));
  for (const std::span<const Edge> list : {edges, more}) {
    for (const Edge& e : list) {
      out.push_back(e.u);
      out.push_back(e.v);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<NodeId> touched_endpoints(const GraphDelta& delta) {
  return endpoints_of(delta.removed, delta.inserted);
}

std::vector<NodeId> removed_endpoints(const GraphDelta& delta) {
  return endpoints_of(delta.removed);
}

std::vector<NodeId> inserted_endpoints(const GraphDelta& delta) {
  return endpoints_of(delta.inserted);
}

}  // namespace remspan
