// Algorithm RemSpan (paper Section 2.3) on the synchronous simulator:
//
//   round 1                  : HELLO broadcast (neighbor discovery)
//   rounds 2 .. 1+scope      : flood own neighbor list to B(u, scope)
//   round 2+scope            : compute the dominating tree T_u from the
//                              locally reconstructed topology
//   rounds 2+scope .. 1+2*scope : flood T_u to B(u, scope)
//
// with scope = TreeRule::dirty_radius() = r - 1 + beta, for a total of
// 2r - 1 + 2*beta rounds exactly as derived in the paper. The tree each
// node builds is the TreeRule's (core/remote_spanner.hpp) — the same rule
// the centralized and incremental builds run, OLSR MPR selection included.
// Each node computes its tree from nothing but the neighbor lists it
// actually received — the tests assert the distributed union equals the
// centralized construction edge-for-edge.
//
// This header holds the protocol's round schedule, the node-local tree
// computation and the one-shot run. The node program itself is the epoch
// protocol of ReconvergenceSim (reconvergence.hpp): a one-shot run is that
// driver's initial epoch, in which every node advertises from a cold start.
#pragma once

#include <map>
#include <vector>

#include "core/remote_spanner.hpp"
#include "sim/link_model.hpp"
#include "sim/network.hpp"

namespace remspan {

/// Message types of the advertise/compute/flood pipeline.
inline constexpr std::uint32_t kMsgHello = 1;         ///< neighbor discovery, empty payload
inline constexpr std::uint32_t kMsgNeighborList = 2;  ///< origin's sorted neighbor list
inline constexpr std::uint32_t kMsgTree = 3;          ///< origin's tree edges as (u,v) pairs

/// Under a reliable (retransmitting) configuration the kMsgNeighborList and
/// kMsgTree payloads carry a leading content-version word so receivers can
/// discard stale copies regardless of arrival order (delay jitter reorders
/// floods); the lossless one-shot schedule omits it — content is flooded
/// exactly once, so there is nothing to order.
inline constexpr std::size_t kVersionPrefixWords = 1;

/// Safety margin added to the exact 1 + 2*scope schedule when capping a
/// lossless protocol epoch. A lossless run terminates by quiescence at
/// exactly expected_rounds(rule) (pinned by Reconvergence.LosslessRunsStopAt
/// ExactlyThePredictedRound); the slack only bounds the simulator loop if
/// a protocol bug ever kept messages in flight, so that the failure shows
/// up as a wrong round count instead of a hang.
inline constexpr std::uint32_t kLosslessRoundSlack = 4;

/// Total round budget 1 + 2 * scope = 2r - 1 + 2 beta claimed by the paper,
/// with scope = rule.dirty_radius().
[[nodiscard]] std::uint32_t expected_rounds(const TreeRule& rule);

/// Simulator cap for one lossless epoch: the exact schedule plus
/// kLosslessRoundSlack so a protocol bug hangs the round counter, not the
/// process.
[[nodiscard]] std::uint32_t round_budget(const TreeRule& rule);

/// The node-local computation of the protocol: reconstructs the topology
/// within the flood scope from `self`'s own (sorted) neighbor list plus the
/// received per-origin neighbor lists, runs rule.build on it, and returns
/// the selected tree edges in global node ids.
///
/// Node ids are compacted monotonically before the tree build so every
/// id-based tie-break matches the centralized computation on the full graph
/// — this is the function that makes "distributed union == centralized
/// spanner" hold edge-for-edge.
///
/// @param rule       The per-root tree rule.
/// @param self       The computing node (global id).
/// @param neighbors  self's current neighbor list, sorted ascending.
/// @param lists      origin -> its sorted neighbor list, for every origin
///                   within the flood scope of self.
/// @return           The tree (or MPR star) edges rooted at self.
[[nodiscard]] std::vector<Edge> compute_local_tree_edges(
    const TreeRule& rule, NodeId self, const std::vector<NodeId>& neighbors,
    const std::map<NodeId, std::vector<NodeId>>& lists);

/// Telemetry hook for the node program's ack-less retransmission: bumps the
/// sim.retransmissions counter, records the freshly scheduled backoff
/// interval (backoff state occupancy), and drops an instant trace event on
/// the node's simulator lane (ts = round number — deterministic, no wall
/// clock). Costs one branch per sink when nothing is installed.
void record_retransmit_obs(NodeId self, std::uint32_t round, std::uint32_t interval);

/// Runs the protocol on g and returns the union of all computed trees as an
/// EdgeSet of g, plus the stats of the run. This is the initial epoch of a
/// ReconvergenceSim on g (strategy kIncremental): its rounds and wire
/// accounting, and the union of its nodes' trees. The run emits the
/// driver's sim.initial_convergence span.
struct DistributedRunResult {
  EdgeSet spanner;
  NetworkStats stats;
  std::uint32_t rounds = 0;
};
[[nodiscard]] DistributedRunResult run_remspan_distributed(const Graph& g, const TreeRule& rule);

/// As above, but over a faulted channel: attaches a LinkModel built from
/// `faults.link` and, whenever the channel is faulty (or reliability was
/// requested explicitly), runs the reliable protocol variant until the
/// confirmed quiescence detector fires. Link sensing is driver-side, as in
/// every ReconvergenceSim epoch: HELLOs are sent and accounted once, never
/// retransmitted. For a faultless default FaultConfig this is
/// byte-identical to the two-argument overload. The convergence-under-loss
/// contract (reconvergence.hpp) applies: for any loss rate < 1 the returned
/// spanner equals the lossless run's spanner edge-for-edge.
[[nodiscard]] DistributedRunResult run_remspan_distributed(const Graph& g, const TreeRule& rule,
                                                           const FaultConfig& faults);

}  // namespace remspan
