#include "sim/remspan_protocol.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/obs.hpp"
#include "sim/reconvergence.hpp"

namespace remspan {

void record_retransmit_obs(NodeId self, std::uint32_t round, std::uint32_t interval) {
  if (obs::Registry* m = obs::metrics()) {
    m->counter("sim.retransmissions").add(1);
    m->histogram("sim.backoff_interval").record(interval);
  }
  if (obs::TraceBuffer* t = obs::trace()) {
    obs::TraceEvent e;
    e.name = "sim.retransmit";
    e.cat = "sim";
    e.ph = obs::kPhaseInstant;
    e.ts = static_cast<double>(round) * obs::kRoundMicros;
    e.pid = obs::kSimPid;
    e.tid = self;
    e.args = {{"interval", static_cast<std::int64_t>(interval)}};
    t->emit(std::move(e));
  }
}

std::uint32_t expected_rounds(const TreeRule& rule) { return 1 + 2 * rule.dirty_radius(); }

std::uint32_t round_budget(const TreeRule& rule) {
  return expected_rounds(rule) + kLosslessRoundSlack;
}

std::vector<Edge> compute_local_tree_edges(const TreeRule& rule, NodeId self,
                                           const std::vector<NodeId>& neighbors,
                                           const std::map<NodeId, std::vector<NodeId>>& lists) {
  // Collect every node id the local view mentions. Ids are compacted
  // monotonically so that every id-based tie-break in DomTreeBuilder
  // matches the centralized computation on the full graph.
  std::vector<NodeId> known;
  known.push_back(self);
  for (const NodeId v : neighbors) known.push_back(v);
  for (const auto& [origin, list] : lists) {
    known.push_back(origin);
    known.insert(known.end(), list.begin(), list.end());
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());

  std::unordered_map<NodeId, NodeId> local_id;
  local_id.reserve(known.size());
  for (NodeId i = 0; i < known.size(); ++i) local_id.emplace(known[i], i);

  GraphBuilder builder(static_cast<NodeId>(known.size()));
  for (const NodeId v : neighbors) builder.add_edge(local_id.at(self), local_id.at(v));
  for (const auto& [origin, list] : lists) {
    for (const NodeId v : list) builder.add_edge(local_id.at(origin), local_id.at(v));
  }
  const Graph local = builder.build();
  const NodeId root = local_id.at(self);

  DomTreeBuilder trees(local);
  const RootedTree& tree = rule.build(trees, root);
  std::vector<Edge> out;
  out.reserve(tree.num_edges());
  for (const Edge& e : tree.edges()) {
    out.push_back(make_edge(known[e.u], known[e.v]));
  }
  return out;
}

DistributedRunResult run_remspan_distributed(const Graph& g, const TreeRule& rule) {
  return run_remspan_distributed(g, rule, FaultConfig{});
}

DistributedRunResult run_remspan_distributed(const Graph& g, const TreeRule& rule,
                                             const FaultConfig& faults) {
  const ReconvergenceSim sim(g, rule, ReconvergeStrategy::kIncremental, faults);
  const ReconvergeBatchStats& initial = sim.initial_stats();
  EdgeSet spanner(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Edge& e : sim.node_tree(v)) {
      const EdgeId id = g.find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      spanner.insert(id);
    }
  }
  const NetworkStats stats{initial.transmissions, initial.receptions, initial.payload_words,
                           initial.drops,         initial.delayed,    initial.rounds};
  return DistributedRunResult{std::move(spanner), stats, initial.rounds};
}

}  // namespace remspan
