#include "sim/remspan_protocol.hpp"

#include <algorithm>
#include <unordered_map>

#include "baseline/mpr.hpp"
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

Dist RemSpanConfig::flood_scope() const {
  switch (kind) {
    case Kind::kLowStretchGreedy:
      return r - 1 + beta;
    case Kind::kLowStretchMis:
      return r;  // r - 1 + 1
    case Kind::kKConnGreedy:
      return 1;  // r = 2, beta = 0
    case Kind::kKConnMis:
      return 2;  // r = 2, beta = 1
    case Kind::kOlsrMpr:
      return 1;  // MPR selection reads nothing beyond N(u)'s links
  }
  return 1;
}

std::uint32_t RemSpanConfig::expected_rounds() const { return 1 + 2 * flood_scope(); }

const char* RemSpanConfig::kind_name() const noexcept {
  switch (kind) {
    case Kind::kLowStretchGreedy:
      return "low-stretch (greedy)";
    case Kind::kLowStretchMis:
      return "low-stretch (mis)";
    case Kind::kKConnGreedy:
      return "k-connecting (greedy)";
    case Kind::kKConnMis:
      return "k-connecting (mis)";
    case Kind::kOlsrMpr:
      return "olsr-mpr";
  }
  return "?";
}

std::vector<Edge> compute_local_tree_edges(const RemSpanConfig& config, NodeId self,
                                           const std::vector<NodeId>& neighbors,
                                           const std::map<NodeId, std::vector<NodeId>>& lists) {
  // Collect every node id the local view mentions. Ids are compacted
  // monotonically so that every id-based tie-break in DomTreeBuilder and
  // olsr_mpr_set matches the centralized computation on the full graph.
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

  std::vector<Edge> out;
  if (config.kind == RemSpanConfig::Kind::kOlsrMpr) {
    for (const NodeId m : olsr_mpr_set(local, root)) {
      out.push_back(make_edge(self, known[m]));
    }
    return out;
  }

  DomTreeBuilder trees(local);
  const RootedTree tree = [&] {
    switch (config.kind) {
      case RemSpanConfig::Kind::kLowStretchGreedy:
        return trees.greedy(root, config.r, config.beta);
      case RemSpanConfig::Kind::kLowStretchMis:
        return trees.mis(root, config.r);
      case RemSpanConfig::Kind::kKConnGreedy:
        return trees.greedy_k(root, config.k);
      case RemSpanConfig::Kind::kKConnMis:
        return trees.mis_k(root, config.k);
      case RemSpanConfig::Kind::kOlsrMpr:
        break;  // handled above
    }
    return RootedTree(root);
  }();
  for (const Edge& e : tree.edges()) {
    out.push_back(make_edge(known[e.u], known[e.v]));
  }
  return out;
}

DistributedRunResult run_remspan_distributed(const Graph& g, const RemSpanConfig& config) {
  return run_remspan_distributed(g, config, FaultConfig{});
}

DistributedRunResult run_remspan_distributed(const Graph& g, const RemSpanConfig& config,
                                             const FaultConfig& faults) {
  const ReconvergenceSim sim(g, config, ReconvergeStrategy::kIncremental, faults);
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
