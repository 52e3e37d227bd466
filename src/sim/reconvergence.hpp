// ReconvergenceSim: protocol-level reconvergence under churn — what a
// remote-spanner buys a *running* link-state protocol when the topology
// keeps changing.
//
// The driver replays a stream of GraphEvent batches (a ChurnTrace) into a
// persistent synchronous Network whose nodes run the advertise/compute/
// flood pipeline of Algorithm RemSpan, and measures, per batch, the cost of
// re-converging the distributed state: rounds, messages, payload words and
// bytes on the wire. Two strategies are compared:
//
//   kFullReflood   — the strawman: every node discards its state and reruns
//                    the full protocol on the new topology (periodic
//                    re-advertisement in OLSR terms). Per-batch cost is the
//                    cost of a cold start, independent of the batch size.
//   kIncremental   — only the nodes whose local knowledge may have changed
//                    re-advertise. These are exactly the *dirty roots* of
//                    the incremental maintenance engine
//                    (collect_dirty_roots, src/dynamic): the nodes within
//                    scope hops of a touched endpoint in the old or new
//                    snapshot. The flood scope IS the TreeRule's dependency
//                    radius max(1, r+beta-1) (TreeRule::dirty_radius), so
//                    this set is both sufficient and locally computable.
//
// Why scoping re-advertisement to the dirty ball reaches the same converged
// state as a full re-flood, bit for bit:
//
//   * A node u's protocol state is a function of the neighbor lists of the
//     origins in B(u, scope). If u is clean (outside every dirty ball),
//     that ball's content is unchanged, so u's stored lists, tree and
//     advertisements are already exactly what a cold start would produce.
//   * Every dirty node re-floods its current list and recomputed tree with
//     ttl = scope over the *new* topology. A node u that needs origin o's
//     data (o in B_new(u, scope)) either already holds it — o clean, in
//     which case o's list is unchanged and was delivered earlier — or o is
//     dirty and the new flood reaches u directly. In particular an origin
//     that *entered* u's ball without itself being touched (a remote
//     insertion shortened the path) lies within scope of the inserted
//     edge's endpoints, is therefore dirty, and re-floods.
//   * Stale entries for origins that *left* the ball are pruned locally:
//     before recomputing, a dirty node walks its stored lists breadth-first
//     from its sensed neighbors to depth scope. Entries inside the
//     reconstructed ball are fresh by the argument above, so the walk never
//     follows a phantom edge, and everything beyond it is discarded.
//
// tests/test_reconvergence.cpp pins this equivalence after every batch
// (spanner, per-node trees, per-node pruned ball views) against both the
// full-re-flood strategy and the centralized constructions.
//
// Link-layer modeling: neighbor change detection (HELLO exchange /
// timeouts) is driver-side — each touched endpoint is handed its new
// sensed neighbor list, the way simulators model layer-2 link sensing.
// Advertising nodes still pay one HELLO broadcast per batch, so the
// round schedule and per-node cost match Algorithm RemSpan's
// 1 + 2*scope budget exactly; a batch whose delta is empty costs zero
// rounds and zero messages.
//
// ---------------------------------------------------------------------------
// Convergence under loss (the contract the fault layer is tested against)
// ---------------------------------------------------------------------------
//
// Claim. Fix a graph, a TreeRule, a strategy and a churn trace, and run
// the driver over any LinkModelConfig whose per-copy delivery probability is
// bounded away from zero on every link at all times (iid drop p < 1,
// Gilbert–Elliott with p_bad_to_good > 0 and drop_bad < 1 or finite bursts,
// finite delay + jitter, partition/kill schedules active on finitely many
// rounds of each epoch, drop-every-Nth attrition — which delivers all but
// every Nth copy, and cannot lock onto the re-advertisement schedule
// because the emission jitter keeps that schedule aperiodic — so every
// constructor-accepted config qualifies) with the reliable protocol
// variant. Then every epoch quiesces with probability
// 1, and at quiescence the per-node converged state — each node's advertised
// tree, its scope-ball neighbor lists and its scope-ball tree views — is
// bit-for-bit the state the lossless one-shot run reaches. Loss and delay
// cost rounds and messages, never correctness.
//
// Proof sketch, by induction over epochs.
//
//   (1) Content determinism. Within one epoch each advertiser's streams
//       have fixed final content: its HELLO names it, its neighbor list is
//       driver-sensed before the epoch starts, and its tree is a
//       deterministic function (compute_local_tree_edges) of its sensed
//       neighbors and its stored ball lists. Retransmissions carry a fresh
//       flood seq — so duplicate suppression never blocks them and each
//       re-flood re-walks the whole ttl = scope ball, healing any gap the
//       channel punched downstream — but unchanged content and version.
//   (2) Eventual delivery. Every advertiser re-floods its streams at least
//       once per backoff_cap + retransmit_jitter rounds until the epoch
//       ends, at emission times jittered by a per-(node, resend) hash so no
//       periodic loss process stays phase-locked to them. Each re-flood
//       reaches each ball member through some shortest path with probability
//       bounded below by a positive constant (finitely many links, each
//       delivering with probability > 0 once the scripted windows lapse), so
//       with probability 1 every node eventually holds every ball origin's
//       final list and final tree. Monotone version acceptance makes
//       reordered late copies (delay jitter) harmless: a node never replaces
//       newer content with older.
//   (3) Final recompute. A reliable node recomputes its tree whenever an
//       accepted message changed its inputs. After the last input change its
//       last recompute reads exactly its sensed neighbors plus the fresh
//       scope-ball lists — the same inputs as the lossless run (stale
//       out-of-ball leftovers are unreachable by the ball walk from fresh
//       lists) — and determinism gives the identical tree. If the content is
//       unchanged, no new version is flooded, so retransmissions alone never
//       register as progress.
//   (4) Termination is *confirmed*, not guessed. A window of W >=
//       3*backoff_cap + max_delay + 2 consecutive progress-free rounds is
//       only a candidate stop: it makes an undelivered stream unlikely
//       (every advertiser retransmitted at least twice inside the window),
//       but at high loss every one of those copies can die, and a scripted
//       schedule (drop-every-Nth attrition aligned with the periodic
//       backoff-capped traffic) can even arrange it deterministically. So
//       at each quiet point the driver consults a completeness oracle —
//       global termination detection, the standard device for synchronous
//       simulators — which checks that every node is settled and holds, for
//       every origin within scope on the current graph, that origin's
//       current list and tree, content-equal. If not, the epoch simply
//       keeps running (the idle window restarts) and (2) delivers the gap
//       with probability 1, so the epoch ends with probability 1 and *only*
//       in the state of (3), which by the dirty-ball argument above equals
//       the lossless converged state. A real deployment has no oracle; it
//       keeps the soft-state periodic refresh running instead and a node
//       that missed part of a stream converges in a later refresh period —
//       same fixpoint, later clock (graceful degradation).
//
// tests/test_reconvergence_loss.cpp pins the claim across loss rates, delay
// jitter, burst loss, partition/flood-kill schedules, graph families and
// both strategies, comparing against the lossless run and the centralized
// construction after every batch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"
#include "sim/link_model.hpp"
#include "sim/network.hpp"
#include "sim/remspan_protocol.hpp"

namespace remspan {

/// How the protocol reacts to a batch of topology updates.
enum class ReconvergeStrategy {
  kIncremental,  ///< only dirty-ball nodes re-advertise (scoped floods)
  kFullReflood,  ///< every node resets and reruns the full protocol
};

/// @return "incremental" or "full-reflood" (bench/tool labels).
[[nodiscard]] const char* strategy_name(ReconvergeStrategy strategy) noexcept;

/// Per-batch reconvergence cost, measured on the synchronous simulator.
struct ReconvergeBatchStats {
  std::size_t batch = 0;             ///< 1-based batch number (0 = initial build)
  std::size_t applied_events = 0;    ///< events that changed stored state
  std::size_t inserted_edges = 0;    ///< live-edge delta vs previous snapshot
  std::size_t removed_edges = 0;
  std::size_t touched_nodes = 0;     ///< endpoints of changed edges
  std::size_t advertising_nodes = 0; ///< nodes that re-advertised this batch
  std::uint32_t rounds = 0;          ///< rounds until quiescence
  std::uint64_t transmissions = 0;   ///< broadcasts (originations + forwards)
  std::uint64_t receptions = 0;      ///< per-neighbor deliveries
  std::uint64_t payload_words = 0;   ///< payload volume over all transmissions
  std::uint64_t wire_bytes = 0;      ///< headers + payload (NetworkStats::wire_bytes)
  std::uint64_t drops = 0;           ///< copies the link model destroyed
  std::uint64_t delayed = 0;         ///< copies the link model postponed
  std::size_t spanner_edges = 0;     ///< |union of advertised trees| after the batch
  double seconds = 0.0;              ///< wall time of the simulated batch
};

/// Churn-aware driver over the round simulator. Owns the evolving topology
/// (a DynamicGraph seeded from the initial graph) and one protocol instance
/// per node; apply_batch() feeds one ChurnTrace batch through the network
/// and reports the reconvergence cost.
class ReconvergenceSim {
 public:
  /// Builds the network on `initial` and runs the initial convergence
  /// (every node advertises from a cold start; cost in initial_stats()).
  /// This initial epoch is Algorithm RemSpan's one-shot run:
  /// run_remspan_distributed is a thin function over it. A faulty
  /// `faults.link` attaches a LinkModel to the channel and switches every
  /// node to the reliable protocol variant (retransmission + backoff +
  /// confirmed quiescence detection); the default FaultConfig runs the
  /// paper's exact lossless schedule.
  ReconvergenceSim(const Graph& initial, const TreeRule& rule, ReconvergeStrategy strategy,
                   const FaultConfig& faults = {});
  ~ReconvergenceSim();

  ReconvergenceSim(const ReconvergenceSim&) = delete;
  ReconvergenceSim& operator=(const ReconvergenceSim&) = delete;

  [[nodiscard]] const TreeRule& rule() const noexcept { return rule_; }
  [[nodiscard]] ReconvergeStrategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] const FaultConfig& faults() const noexcept { return faults_; }

  /// The snapshot the protocol state currently refers to.
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Number of batches applied so far.
  [[nodiscard]] std::uint32_t batches_applied() const noexcept { return epoch_; }

  /// Cost of the initial cold-start convergence (batch index 0).
  [[nodiscard]] const ReconvergeBatchStats& initial_stats() const noexcept { return initial_; }

  /// Applies one batch of updates to the topology and re-converges the
  /// protocol state under the configured strategy. An all-no-op batch
  /// returns with zero rounds and zero messages.
  ReconvergeBatchStats apply_batch(std::span<const GraphEvent> events);

  /// Union of every node's currently advertised tree over graph() — the
  /// network-wide view of the spanner the protocol maintains.
  [[nodiscard]] EdgeSet spanner() const;

  /// Node v's currently advertised tree edges (global node pairs).
  [[nodiscard]] const std::vector<Edge>& node_tree(NodeId v) const;

  /// Node v's topology knowledge pruned to its scope-ball: origin -> sorted
  /// neighbor list, exactly what v's next tree computation would read. The
  /// oracle tests compare this between strategies.
  [[nodiscard]] std::map<NodeId, std::vector<NodeId>> node_ball_lists(NodeId v) const;

  /// Latest tree v knows per ball origin (its own under key v) — the
  /// node-local view of the spanner within its ball.
  [[nodiscard]] std::map<NodeId, std::vector<Edge>> node_ball_trees(NodeId v) const;

 private:
  /// Runs one convergence epoch: to the confirmed quiescence detector under
  /// a reliable configuration, to the fixed round budget otherwise.
  std::uint32_t run_epoch();

  /// The completeness oracle behind confirmed quiescence (proof-sketch step
  /// 4): true iff every node is settled and holds, for every origin within
  /// rule_.dirty_radius() of it on the current graph, that origin's current sensed
  /// neighbor list and currently advertised tree, content-equal.
  [[nodiscard]] bool ball_state_complete();

  TreeRule rule_;
  ReconvergeStrategy strategy_;
  FaultConfig faults_;
  ReliabilityConfig rel_;
  DynamicGraph dynamic_;
  std::shared_ptr<const Graph> graph_;
  std::unique_ptr<Network> net_;
  BoundedBfs dirty_bfs_;
  std::vector<std::uint8_t> dirty_flag_;
  ReconvergeBatchStats initial_;
  std::uint32_t epoch_ = 0;
};

}  // namespace remspan
