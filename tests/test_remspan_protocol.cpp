// Distributed RemSpan protocol: the distributed union must equal the
// centralized construction edge-for-edge, within the paper's round budget.
#include <gtest/gtest.h>

#include "analysis/stretch_oracle.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "sim/reconvergence.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph test_graph(int which, std::uint64_t seed) {
  Rng rng(seed);
  switch (which % 4) {
    case 0:
      return connected_gnp(35, 0.15, rng);
    case 1:
      return grid_graph(6, 6);
    case 2: {
      const auto gg = uniform_unit_ball_graph(60, 4.0, 2, rng);
      const auto comps = connected_components(gg.graph);
      return induced_subgraph(gg.graph, comps.largest()).graph;
    }
    default:
      return cycle_graph(20);
  }
}

TEST(RemSpanProtocol, KConnGreedyMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 500 + static_cast<std::uint64_t>(which));
    for (const Dist k : {1u, 2u}) {
      const TreeRule cfg = TreeRule::k_connecting(k);
      const auto dist = run_remspan_distributed(g, cfg);
      const EdgeSet central = build_k_connecting_spanner(g, k);
      EXPECT_EQ(dist.spanner, central) << "graph=" << which << " k=" << k;
    }
  }
}

TEST(RemSpanProtocol, KConnMisMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 600 + static_cast<std::uint64_t>(which));
    const TreeRule cfg = TreeRule::two_connecting(2);
    const auto dist = run_remspan_distributed(g, cfg);
    const EdgeSet central = build_2connecting_spanner(g, 2);
    EXPECT_EQ(dist.spanner, central) << "graph=" << which;
  }
}

TEST(RemSpanProtocol, LowStretchGreedyMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 700 + static_cast<std::uint64_t>(which));
    for (const Dist r : {2u, 3u}) {
      const TreeRule cfg = TreeRule::r_beta(r, 1, TreeAlgorithm::kGreedy);
      const auto dist = run_remspan_distributed(g, cfg);
      const EdgeSet central = build_remote_spanner(g, r, 1, TreeAlgorithm::kGreedy);
      EXPECT_EQ(dist.spanner, central) << "graph=" << which << " r=" << r;
    }
  }
}

TEST(RemSpanProtocol, LowStretchMisMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 800 + static_cast<std::uint64_t>(which));
    const TreeRule cfg = TreeRule::r_beta(3, 1, TreeAlgorithm::kMis);
    const auto dist = run_remspan_distributed(g, cfg);
    const EdgeSet central = build_remote_spanner(g, 3, 1, TreeAlgorithm::kMis);
    EXPECT_EQ(dist.spanner, central) << "graph=" << which;
  }
}

TEST(RemSpanProtocol, RoundCountMatchesPaperFormula) {
  // 2r - 1 + 2*beta rounds (Section 2.3), independent of n.
  for (const NodeId n : {20u, 60u}) {
    const Graph g = cycle_graph(n);
    {
      const TreeRule cfg = TreeRule::k_connecting(1);  // r=2, beta=0 -> 3 rounds
      const auto run = run_remspan_distributed(g, cfg);
      EXPECT_EQ(run.rounds, 3u) << "n=" << n;
      EXPECT_EQ(run.rounds, expected_rounds(cfg));
    }
    {
      const TreeRule cfg = TreeRule::r_beta(4, 1, TreeAlgorithm::kGreedy);  // 2r-1+2b
      const auto run = run_remspan_distributed(g, cfg);
      EXPECT_EQ(run.rounds, 2u * 4u - 1u + 2u) << "n=" << n;
      EXPECT_EQ(run.rounds, expected_rounds(cfg));
    }
  }
}

TEST(RemSpanProtocol, OneShotLosslessAccountingPinned) {
  // Exact wire accounting of the lossless one-shot run on one fixed paper
  // UDG (Poisson points in a fixed square, unit disks, largest component)
  // for every protocol kind: rounds, transmissions, receptions, payload
  // words and spanner size are deterministic, so any change to the node
  // program's schedule or payload format shows up here as a number.
  Rng rng(4242);
  const Graph g = largest_component(random_unit_disk_graph(6.0, 150.0, rng).graph);
  ASSERT_EQ(g.num_nodes(), 150u);
  struct Pinned {
    TreeRule rule;
    std::uint32_t rounds;
    std::uint64_t transmissions, receptions, payload_words;
    std::size_t spanner_edges;
  };
  // Measured on the lossless one-shot schedule (HELLO, list flood, tree
  // flood).
  const std::vector<Pinned> pinned = {
      {TreeRule::k_connecting(1), 3, 450, 4692, 2506, 372},
      {TreeRule::k_connecting(2), 3, 450, 4692, 3214, 568},
      {TreeRule::two_connecting(2), 5, 3578, 40620, 56884, 627},
      {TreeRule::r_beta(3, 1, TreeAlgorithm::kGreedy), 7, 7774, 85290, 119633, 409},
      {TreeRule::r_beta(3, 1, TreeAlgorithm::kMis), 7, 7774, 85290, 135599, 427},
      {TreeRule::mpr(), 3, 450, 4692, 2498, 382},
  };
  for (const Pinned& p : pinned) {
    const auto run = run_remspan_distributed(g, p.rule);
    const std::string label = std::string(p.rule.name()) + " k=" + std::to_string(p.rule.k);
    EXPECT_EQ(run.rounds, p.rounds) << label;
    EXPECT_EQ(run.rounds, expected_rounds(p.rule)) << label;
    EXPECT_EQ(run.stats.rounds, run.rounds) << label;
    EXPECT_EQ(run.stats.transmissions, p.transmissions) << label;
    EXPECT_EQ(run.stats.receptions, p.receptions) << label;
    EXPECT_EQ(run.stats.payload_words, p.payload_words) << label;
    EXPECT_EQ(run.stats.drops, 0u) << label;
    EXPECT_EQ(run.spanner.size(), p.spanner_edges) << label;
  }
}

TEST(RemSpanProtocol, TopologyKnowledgeIsLocal) {
  // With scope s, a node must only know neighbor lists of nodes within
  // distance s — the protocol is local, the paper's key selling point.
  const Graph g = path_graph(12);
  const TreeRule cfg = TreeRule::r_beta(3, 1, TreeAlgorithm::kGreedy);  // scope 3
  const ReconvergenceSim sim(g, cfg, ReconvergeStrategy::kIncremental);
  // On a path, distance = id difference: node 0 holds exactly the lists of
  // origins 1..3 (its own list comes from link sensing).
  std::vector<NodeId> origins;
  for (const auto& [origin, list] : sim.node_ball_lists(0)) origins.push_back(origin);
  EXPECT_EQ(origins, (std::vector<NodeId>{1, 2, 3}));
}

TEST(RemSpanProtocol, MessageCountScalesWithScopeTimesN) {
  // Each node originates 2 floods of scope s: total transmissions are
  // O(n * ball(s)) on bounded-degree graphs — here we just check the exact
  // budget on a cycle: hello (n) + 2 floods, each forwarded by every node
  // within distance s-1... measured empirically and stable.
  const Graph g = cycle_graph(30);
  const TreeRule cfg = TreeRule::k_connecting(1);  // scope 1: no forwarding
  const auto run = run_remspan_distributed(g, cfg);
  // hello 30 + neighbor lists 30 + trees 30 = 90 transmissions exactly.
  EXPECT_EQ(run.stats.transmissions, 90u);
}

TEST(RemSpanProtocol, StretchOfDistributedResult) {
  const Graph g = test_graph(0, 900);
  const TreeRule cfg = TreeRule::r_beta(3, 1, TreeAlgorithm::kMis);
  const auto run = run_remspan_distributed(g, cfg);
  const Stretch s = stretch_for_radius(3);
  EXPECT_TRUE(check_remote_stretch(g, run.spanner, s).satisfied);
}

TEST(RemSpanProtocol, RestabilizesAfterTopologyChange) {
  // Run on g1, then rerun fresh protocols on g2 (periodic re-advertisement
  // in OLSR terms): result equals centralized on g2.
  Rng rng(901);
  const Graph g2 = connected_gnp(30, 0.15, rng);
  const TreeRule cfg = TreeRule::k_connecting(1);
  const auto run2 = run_remspan_distributed(g2, cfg);
  EXPECT_EQ(run2.spanner, build_k_connecting_spanner(g2, 1));
}

}  // namespace
}  // namespace remspan
