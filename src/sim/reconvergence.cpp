#include "sim/reconvergence.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/obs.hpp"
#include "sim/flooding.hpp"

namespace remspan {

const char* strategy_name(ReconvergeStrategy strategy) noexcept {
  return strategy == ReconvergeStrategy::kIncremental ? "incremental" : "full-reflood";
}

namespace {

/// The node program of Algorithm RemSpan, run in epochs by ReconvergenceSim.
/// The initial epoch is the one-shot run (run_remspan_distributed); after
/// that each batch is one epoch: the driver marks the node advertising or
/// passive and restarts its local round counter; an advertising node replays
/// the RemSpan schedule (HELLO, neighbor-list flood, tree recompute + flood)
/// while a passive node only stores and forwards other nodes' floods.
class ReconvergeProtocol final : public Protocol {
 public:
  ReconvergeProtocol(const TreeRule& rule, NodeId self, const ReliabilityConfig& rel = {})
      : rule_(rule), rel_(rel), self_(self) {}

  /// Link-layer sensing: the driver hands over the node's current neighbor
  /// list (sorted) whenever one of its links changed.
  void sense_neighbors(std::vector<NodeId> sorted) { neighbors_ = std::move(sorted); }

  /// Starts a new epoch. `advertise` nodes rerun the protocol schedule;
  /// `reset_state` additionally discards all accumulated knowledge (the
  /// full-re-flood strawman's cold start).
  void begin_epoch(bool advertise, bool reset_state) {
    if (reset_state) {
      lists_.clear();
      trees_.clear();
      tree_edges_.clear();
    }
    // The previous epoch ran to quiescence, so its duplicate-suppression
    // keys can never match again (seqs only grow); keep memory O(live state).
    flood_.reset_seen();
    advertise_ = advertise;
    round_ = 0;
    finished_ = !advertise;
    // Reliable per-epoch state: content versions restart (each epoch's list
    // content is fixed, trees may be recomputed as late input arrives) and
    // the receive-side dedup maps empty alongside the suppression keys.
    computed_ = false;
    recompute_needed_ = false;
    my_tree_version_ = 0;
    lists_rx_epoch_.clear();
    tree_rx_version_.clear();
    retransmit_interval_ = 0;
    next_retransmit_ = 0;
    resend_count_ = 0;
  }

  void on_round(NodeContext& ctx) override {
    ++round_;
    if (!advertise_) return;
    const Dist scope = rule_.dirty_radius();
    if (round_ == 1) {
      Message hello;
      hello.type = kMsgHello;
      hello.origin = self_;
      ctx.broadcast(std::move(hello));
      return;
    }
    if (round_ == 2) {
      advertise_list(ctx);
      if (rel_.enabled) {
        retransmit_interval_ = std::max<std::uint32_t>(1, rel_.retransmit_base);
        next_retransmit_ = round_ + retransmit_interval_ +
                           emission_jitter(self_, ++resend_count_, rel_.retransmit_jitter);
      }
      return;
    }
    if (!rel_.enabled) {
      if (round_ == 2 + scope && !finished_) {
        prune_to_ball();
        tree_edges_ = compute_local_tree_edges(rule_, self_, neighbors_, lists_);
        flood_tree(ctx);
        finished_ = true;
      }
      return;
    }
    // Reliable schedule: compute on the paper's round from whatever arrived
    // (without pruning — under loss the reconstructable ball is a *subset*
    // of the real one, and discarding stored state it cannot reach yet
    // would throw away data a retransmission already healed), then
    // recompute whenever accepted input changed, flooding a new tree
    // version only on content change.
    if (round_ == 2 + scope && !computed_) {
      computed_ = true;
      finished_ = true;
      recompute_needed_ = false;
      tree_edges_ = compute_local_tree_edges(rule_, self_, neighbors_, tolerant_ball_lists());
      ++progress_;
      flood_tree(ctx);
    } else if (computed_ && recompute_needed_) {
      recompute_needed_ = false;
      std::vector<Edge> fresh =
          compute_local_tree_edges(rule_, self_, neighbors_, tolerant_ball_lists());
      if (fresh != tree_edges_) {
        tree_edges_ = std::move(fresh);
        ++my_tree_version_;
        ++progress_;
        flood_tree(ctx);
      }
    }
    // Ack-less periodic re-advertisement with capped exponential backoff
    // plus deterministic emission jitter (see emission_jitter). Fresh seqs
    // make FloodManager forward the copies (healing downstream gaps);
    // unchanged versions keep receivers that already accepted the content
    // untouched, so retransmissions never delay quiescence. HELLOs are not
    // retransmitted: sensing is driver-side (header comment).
    if (next_retransmit_ != 0 && round_ >= next_retransmit_) {
      advertise_list(ctx);
      if (computed_) flood_tree(ctx);
      retransmit_interval_ =
          std::min(retransmit_interval_ * 2, std::max<std::uint32_t>(1, rel_.backoff_cap));
      next_retransmit_ = round_ + retransmit_interval_ +
                         emission_jitter(self_, ++resend_count_, rel_.retransmit_jitter);
      record_retransmit_obs(self_, round_, retransmit_interval_);
    }
  }

  void on_message(NodeContext& ctx, const Message& msg) override {
    switch (msg.type) {
      case kMsgHello:
        break;  // sensing is driver-side; the delivery is still accounted
      case kMsgNeighborList: {
        if (!flood_.accept(ctx, msg)) break;
        if (!rel_.enabled) {
          lists_[msg.origin] = std::vector<NodeId>(msg.payload.begin(), msg.payload.end());
          break;
        }
        // List content is fixed per (origin, epoch): the first copy this
        // epoch is progress, every later one a retransmission duplicate.
        REMSPAN_CHECK(!msg.payload.empty());
        if (!lists_rx_epoch_.insert(msg.origin).second) break;
        lists_[msg.origin] = std::vector<NodeId>(msg.payload.begin() + kVersionPrefixWords,
                                                 msg.payload.end());
        ++progress_;
        if (computed_) recompute_needed_ = true;
        break;
      }
      case kMsgTree: {
        if (!flood_.accept(ctx, msg)) break;
        if (!rel_.enabled) {
          std::vector<Edge> edges;
          edges.reserve(msg.payload.size() / 2);
          for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
            edges.push_back(make_edge(msg.payload[i], msg.payload[i + 1]));
          }
          trees_[msg.origin] = std::move(edges);
          break;
        }
        // Monotone version acceptance: delay jitter can deliver tree v0
        // after the origin already recomputed and flooded v1.
        REMSPAN_CHECK(!msg.payload.empty());
        const std::uint32_t version = msg.payload[0];
        const auto seen = tree_rx_version_.find(msg.origin);
        if (seen != tree_rx_version_.end() && version <= seen->second) break;
        tree_rx_version_[msg.origin] = version;
        std::vector<Edge> edges;
        edges.reserve((msg.payload.size() - kVersionPrefixWords) / 2);
        for (std::size_t i = kVersionPrefixWords; i + 1 < msg.payload.size(); i += 2) {
          edges.push_back(make_edge(msg.payload[i], msg.payload[i + 1]));
        }
        trees_[msg.origin] = std::move(edges);
        ++progress_;
        break;
      }
      default:
        break;
    }
  }

  /// Reliable nodes never self-declare done — an ack-less sender cannot
  /// know its floods landed; the quiescence detector terminates the epoch.
  [[nodiscard]] bool done() const override { return rel_.enabled ? false : finished_; }

  [[nodiscard]] std::uint64_t state_version() const override { return progress_; }

  [[nodiscard]] const std::vector<Edge>& tree_edges() const noexcept { return tree_edges_; }

  // Read-only hooks for the driver's completeness oracle (reliable mode).
  /// True once this node has nothing scheduled: passive, or computed with
  /// no recompute pending over the inputs accepted so far.
  [[nodiscard]] bool settled() const noexcept {
    return !advertise_ || (computed_ && !recompute_needed_);
  }
  [[nodiscard]] const std::vector<NodeId>& sensed_neighbors() const noexcept { return neighbors_; }
  [[nodiscard]] const std::vector<NodeId>* stored_list(NodeId origin) const {
    const auto it = lists_.find(origin);
    return it == lists_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::vector<Edge>* stored_tree(NodeId origin) const {
    const auto it = trees_.find(origin);
    return it == trees_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::map<NodeId, std::vector<NodeId>> pruned_lists() const {
    std::map<NodeId, std::vector<NodeId>> out;
    for (const NodeId v : walk_ball().origins) {
      const auto it = lists_.find(v);
      REMSPAN_CHECK(it != lists_.end());
      out.emplace(v, it->second);
    }
    return out;
  }

  [[nodiscard]] std::map<NodeId, std::vector<Edge>> pruned_trees() const {
    const BallWalk ball = walk_ball();
    REMSPAN_CHECK(!ball.missing_list);
    std::map<NodeId, std::vector<Edge>> out;
    out.emplace(self_, tree_edges_);
    for (const NodeId v : ball.origins) {
      const auto it = trees_.find(v);
      REMSPAN_CHECK(it != trees_.end());
      out.emplace(v, it->second);
    }
    return out;
  }

 private:
  /// Floods this epoch's sensed neighbor list. Reliable mode prefixes the
  /// constant per-epoch version 0 (wire-format uniformity with kMsgTree);
  /// lossless mode keeps the original unprefixed payload so the committed
  /// wire accounting is byte-identical.
  void advertise_list(NodeContext& ctx) {
    std::vector<std::uint32_t> payload;
    payload.reserve(neighbors_.size() + (rel_.enabled ? kVersionPrefixWords : 0));
    if (rel_.enabled) payload.push_back(0);
    payload.insert(payload.end(), neighbors_.begin(), neighbors_.end());
    flood_.originate(ctx, kMsgNeighborList, rule_.dirty_radius(), std::move(payload));
  }

  /// Floods the currently advertised tree (version-prefixed in reliable mode).
  void flood_tree(NodeContext& ctx) {
    std::vector<std::uint32_t> payload;
    payload.reserve(tree_edges_.size() * 2 + (rel_.enabled ? kVersionPrefixWords : 0));
    if (rel_.enabled) payload.push_back(my_tree_version_);
    for (const Edge& e : tree_edges_) {
      payload.push_back(e.u);
      payload.push_back(e.v);
    }
    flood_.originate(ctx, kMsgTree, rule_.dirty_radius(), std::move(payload));
  }

  /// The scope-ball around this node, walked breadth-first over its stored
  /// lists from its sensed neighbors to depth scope.
  struct BallWalk {
    std::vector<NodeId> origins;  ///< reached origins at distance 1..scope, sorted
    bool missing_list = false;    ///< an origin the walk had to expand has no stored list
  };

  /// Once an epoch has delivered its floods, entries inside the ball are
  /// provably fresh (header comment), so the walk follows real edges only
  /// and every in-ball list is present; the strict callers REMSPAN_CHECK
  /// that. Mid-epoch under loss a list may still be in flight: the walk
  /// skips it, so `origins` is then a subset of the real ball.
  [[nodiscard]] BallWalk walk_ball() const {
    BallWalk out;
    std::map<NodeId, Dist> dist;
    dist.emplace(self_, 0);
    std::vector<NodeId> frontier{self_};
    for (Dist d = 0; d < rule_.dirty_radius() && !frontier.empty(); ++d) {
      std::vector<NodeId> next;
      for (const NodeId w : frontier) {
        const std::vector<NodeId>* nbrs = &neighbors_;
        if (w != self_) {
          const auto it = lists_.find(w);
          if (it == lists_.end()) {
            out.missing_list = true;
            continue;
          }
          nbrs = &it->second;
        }
        for (const NodeId x : *nbrs) {
          if (dist.emplace(x, d + 1).second) next.push_back(x);
        }
      }
      frontier = std::move(next);
    }
    out.origins.reserve(dist.size() - 1);
    for (const auto& entry : dist) {
      if (entry.first != self_) out.origins.push_back(entry.first);
    }
    return out;  // std::map iteration: already sorted
  }

  /// The stored lists of the origins the walk reached. Once every ball
  /// origin's final list landed this equals the strict pruned view, so the
  /// last recompute reads exactly the lossless inputs (stale out-of-ball
  /// leftovers are unreachable from the fresh sensed neighbors).
  [[nodiscard]] std::map<NodeId, std::vector<NodeId>> tolerant_ball_lists() const {
    std::map<NodeId, std::vector<NodeId>> out;
    for (const NodeId v : walk_ball().origins) {
      const auto it = lists_.find(v);
      if (it != lists_.end()) out.emplace(v, it->second);
    }
    return out;
  }

  /// Drops every stored list / tree entry whose origin left the scope-ball;
  /// called right before the tree recompute so stale knowledge can never
  /// leak into the local graph. Runs mid-epoch: this epoch's tree floods
  /// are still in flight, so a ball origin may legitimately have no tree
  /// entry yet (unlike in pruned_trees(), which reads converged state).
  void prune_to_ball() {
    std::map<NodeId, std::vector<NodeId>> lists;
    std::map<NodeId, std::vector<Edge>> trees;
    for (const NodeId v : walk_ball().origins) {
      const auto it = lists_.find(v);
      REMSPAN_CHECK(it != lists_.end());
      lists.emplace(v, std::move(it->second));
      const auto jt = trees_.find(v);
      if (jt != trees_.end()) trees.emplace(v, std::move(jt->second));
    }
    lists_ = std::move(lists);
    trees_ = std::move(trees);
  }

  TreeRule rule_;
  ReliabilityConfig rel_;
  NodeId self_;
  FloodManager flood_;
  std::vector<NodeId> neighbors_;              // sensed, sorted
  std::map<NodeId, std::vector<NodeId>> lists_;  // origin -> latest neighbor list
  std::map<NodeId, std::vector<Edge>> trees_;    // origin -> latest tree
  std::vector<Edge> tree_edges_;               // own advertised tree
  std::uint32_t round_ = 0;
  bool advertise_ = false;
  bool finished_ = true;
  // Reliable mode only: quiescence-progress counter, this epoch's own tree
  // version, compute/recompute bookkeeping, receive-side dedup (first list
  // copy per origin per epoch; monotone tree versions) and the
  // retransmission clock.
  std::uint64_t progress_ = 0;
  std::uint32_t my_tree_version_ = 0;
  bool computed_ = false;
  bool recompute_needed_ = false;
  std::set<NodeId> lists_rx_epoch_;
  std::map<NodeId, std::uint32_t> tree_rx_version_;
  std::uint32_t retransmit_interval_ = 0;
  std::uint32_t next_retransmit_ = 0;
  std::uint32_t resend_count_ = 0;  // feeds the per-node emission jitter
};

ReconvergeProtocol& proto(Network& net, NodeId v) {
  return dynamic_cast<ReconvergeProtocol&>(net.node(v));
}

std::vector<NodeId> sorted_neighbors(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);  // CSR rows are sorted
  return {nbrs.begin(), nbrs.end()};
}

}  // namespace

ReconvergenceSim::ReconvergenceSim(const Graph& initial, const TreeRule& rule,
                                   ReconvergeStrategy strategy, const FaultConfig& faults)
    : rule_(rule),
      strategy_(strategy),
      faults_(faults),
      rel_(faults.effective_reliability()),
      dynamic_(initial),
      graph_(dynamic_.snapshot()),
      ball_bfs_(initial.num_nodes()),
      dirty_(initial.num_nodes()) {
  obs::PhaseSpan span("sim.initial_convergence", "sim");
  const ReliabilityConfig& rel = rel_;
  net_ = std::make_unique<Network>(*graph_, [&rule, &rel](NodeId v) {
    return std::make_unique<ReconvergeProtocol>(rule, v, rel);
  });
  if (faults_.faulty()) {
    net_->set_link_model(std::make_unique<LinkModel>(faults_.link, graph_->num_nodes()));
  }
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    auto& p = proto(*net_, v);
    p.sense_neighbors(sorted_neighbors(*graph_, v));
    p.begin_epoch(/*advertise=*/true, /*reset_state=*/true);
  }
  initial_.rounds = run_epoch();
  const NetworkStats& s = net_->stats();
  initial_.advertising_nodes = graph_->num_nodes();
  initial_.transmissions = s.transmissions;
  initial_.receptions = s.receptions;
  initial_.payload_words = s.payload_words;
  initial_.wire_bytes = s.wire_bytes();
  initial_.drops = s.drops;
  initial_.delayed = s.delayed;
  initial_.spanner_edges = spanner().size();
  initial_.seconds = span.seconds();
}

std::uint32_t ReconvergenceSim::run_epoch() {
  if (!rel_.enabled) return net_->run(round_budget(rule_));
  // The detector window must cover the longest progress-free stretch the
  // legal schedule allows: the capped retransmission period plus delivery
  // delay, but also the quiet rounds between a node's advertisement and its
  // scheduled compute. The window alone is a candidate stop; the
  // completeness oracle below confirms it (header, proof-sketch step 4).
  const std::uint32_t window = std::max(rel_.quiescence_window_for(faults_.link.max_delay()),
                                        expected_rounds(rule_) + 2);
  return net_->run_until_quiescent(window, rel_.max_rounds,
                                   [this] { return ball_state_complete(); });
}

bool ReconvergenceSim::ball_state_complete() {
  const Dist scope = rule_.dirty_radius();
  for (NodeId u = 0; u < graph_->num_nodes(); ++u) {
    const ReconvergeProtocol& pu = proto(*net_, u);
    if (!pu.settled()) return false;
    ball_bfs_.run(GraphView(*graph_), u, scope);
    for (const NodeId o : ball_bfs_.order()) {
      if (o == u) continue;
      const ReconvergeProtocol& po = proto(*net_, o);
      const std::vector<NodeId>* list = pu.stored_list(o);
      if (list == nullptr || *list != po.sensed_neighbors()) return false;
      const std::vector<Edge>* tree = pu.stored_tree(o);
      if (tree == nullptr || *tree != po.tree_edges()) return false;
    }
  }
  return true;
}

ReconvergenceSim::~ReconvergenceSim() = default;

ReconvergeBatchStats ReconvergenceSim::apply_batch(std::span<const GraphEvent> events) {
  obs::PhaseSpan span("sim.reconverge_batch", "sim");
  ReconvergeBatchStats stats;
  stats.batch = ++epoch_;
  stats.applied_events = dynamic_.apply_all(events);

  const std::shared_ptr<const Graph> old_graph = graph_;
  graph_ = dynamic_.snapshot();
  const GraphDelta& delta = dynamic_.last_change();
  net_->change_topology(*graph_);
  if (delta.empty()) {
    // No live-topology change: nobody re-advertises, nothing flows.
    stats.spanner_edges = spanner().size();
    stats.seconds = span.seconds();
    return stats;
  }
  stats.removed_edges = delta.removed.size();
  stats.inserted_edges = delta.inserted.size();

  const std::vector<NodeId> touched = touched_endpoints(delta);
  stats.touched_nodes = touched.size();

  if (strategy_ == ReconvergeStrategy::kFullReflood) {
    for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
      auto& p = proto(*net_, v);
      p.sense_neighbors(sorted_neighbors(*graph_, v));
      p.begin_epoch(/*advertise=*/true, /*reset_state=*/true);
    }
    stats.advertising_nodes = graph_->num_nodes();
  } else {
    // Every touched endpoint on both sides: the symmetric dirty ball.
    const std::vector<NodeId> dirty =
        dirty_.expand(*old_graph, *graph_, touched, touched, rule_.dirty_radius());
    auto next_dirty = dirty.begin();  // sorted
    for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
      const bool advertise = next_dirty != dirty.end() && *next_dirty == v;
      if (advertise) ++next_dirty;
      proto(*net_, v).begin_epoch(advertise, /*reset_state=*/false);
    }
    for (const NodeId v : touched) {
      proto(*net_, v).sense_neighbors(sorted_neighbors(*graph_, v));
    }
    stats.advertising_nodes = dirty.size();
  }

  const NetworkStats before = net_->stats();
  stats.rounds = run_epoch();
  const NetworkStats delta_stats = net_->stats() - before;
  stats.transmissions = delta_stats.transmissions;
  stats.receptions = delta_stats.receptions;
  stats.payload_words = delta_stats.payload_words;
  stats.wire_bytes = delta_stats.wire_bytes();
  stats.drops = delta_stats.drops;
  stats.delayed = delta_stats.delayed;
  stats.spanner_edges = spanner().size();
  stats.seconds = span.seconds();
  return stats;
}

EdgeSet ReconvergenceSim::spanner() const {
  EdgeSet h(*graph_);
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    for (const Edge& e : proto(*net_, v).tree_edges()) {
      const EdgeId id = graph_->find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      h.insert(id);
    }
  }
  return h;
}

const std::vector<Edge>& ReconvergenceSim::node_tree(NodeId v) const {
  return proto(*net_, v).tree_edges();
}

std::map<NodeId, std::vector<NodeId>> ReconvergenceSim::node_ball_lists(NodeId v) const {
  return proto(*net_, v).pruned_lists();
}

std::map<NodeId, std::vector<Edge>> ReconvergenceSim::node_ball_trees(NodeId v) const {
  return proto(*net_, v).pruned_trees();
}

}  // namespace remspan
