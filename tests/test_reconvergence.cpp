// Protocol-level reconvergence under churn: the scoped incremental
// re-advertisement must reach, after every batch, the exact converged state
// a full re-flood reaches — per-node ball knowledge, per-node trees and the
// global spanner — which in turn must equal the centralized construction.
#include <gtest/gtest.h>

#include "core/remote_spanner.hpp"
#include "dynamic/churn_trace.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "sim/reconvergence.hpp"
#include "sim/remspan_protocol.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

using testsupport::scratch_spanner;

/// Both strategies must agree on everything observable after each batch.
void expect_same_converged_state(ReconvergenceSim& inc, ReconvergenceSim& ref,
                                 const std::string& context) {
  ASSERT_EQ(inc.graph().num_nodes(), ref.graph().num_nodes()) << context;
  ASSERT_EQ(inc.graph().num_edges(), ref.graph().num_edges()) << context;
  EXPECT_EQ(inc.spanner().edge_list(), ref.spanner().edge_list()) << context;
  for (NodeId v = 0; v < inc.graph().num_nodes(); ++v) {
    EXPECT_EQ(inc.node_tree(v), ref.node_tree(v)) << context << " node " << v;
    EXPECT_EQ(inc.node_ball_lists(v), ref.node_ball_lists(v)) << context << " node " << v;
    EXPECT_EQ(inc.node_ball_trees(v), ref.node_ball_trees(v)) << context << " node " << v;
  }
}

void replay_and_compare(const ChurnTrace& trace, const TreeRule& cfg,
                        const std::string& label) {
  const Graph initial = trace.initial_graph();
  ReconvergenceSim inc(initial, cfg, ReconvergeStrategy::kIncremental);
  ReconvergenceSim ref(initial, cfg, ReconvergeStrategy::kFullReflood);
  expect_same_converged_state(inc, ref, label + " initial");
  EXPECT_EQ(inc.spanner().edge_list(), scratch_spanner(initial, cfg).edge_list()) << label;

  for (std::size_t b = 0; b < trace.batches.size(); ++b) {
    const auto inc_stats = inc.apply_batch(trace.batches[b]);
    const auto ref_stats = ref.apply_batch(trace.batches[b]);
    const std::string context = label + " batch " + std::to_string(b);
    ASSERT_EQ(inc_stats.inserted_edges, ref_stats.inserted_edges) << context;
    ASSERT_EQ(inc_stats.removed_edges, ref_stats.removed_edges) << context;
    expect_same_converged_state(inc, ref, context);
    EXPECT_EQ(inc.spanner().edge_list(), scratch_spanner(inc.graph(), cfg).edge_list()) << context;
    // Scoped re-advertisement can never cost more than the cold start.
    EXPECT_LE(inc_stats.transmissions, ref_stats.transmissions) << context;
    EXPECT_LE(inc_stats.advertising_nodes, ref_stats.advertising_nodes) << context;
  }
}

TEST(Reconvergence, IncrementalMatchesRefloodOnRandomChurn) {
  Rng rng(11);
  const Graph g = connected_gnp(48, 0.12, rng);
  const ChurnTrace trace = random_edge_churn_trace(g, 6, 5, 0.2, 77);
  replay_and_compare(trace, TreeRule::k_connecting(1), "gnp/kconn1");
  replay_and_compare(trace, TreeRule::two_connecting(2), "gnp/kconn-mis");
  replay_and_compare(trace, TreeRule::mpr(), "gnp/mpr");
}

TEST(Reconvergence, IncrementalMatchesRefloodOnMobility) {
  Rng rng(12);
  const auto gg = largest_component(uniform_unit_ball_graph(70, 4.0, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(gg, 6, 2, 78);
  replay_and_compare(trace, TreeRule::k_connecting(1), "udg/kconn1");
  replay_and_compare(trace, TreeRule::r_beta(3, 1, TreeAlgorithm::kMis), "udg/mis-r3");
  replay_and_compare(trace, TreeRule::mpr(), "udg/mpr");
}

TEST(Reconvergence, IncrementalMatchesRefloodOnRegionOutage) {
  Rng rng(13);
  const auto gg = largest_component(uniform_unit_ball_graph(70, 4.0, 2, rng));
  const ChurnTrace trace = region_outage_trace(gg, 3, 1.2, 79);
  replay_and_compare(trace, TreeRule::k_connecting(1), "outage/kconn1");
  replay_and_compare(trace, TreeRule::r_beta(3, 1, TreeAlgorithm::kGreedy),
                     "outage/greedy-r3");
}

TEST(Reconvergence, EmptyBatchCostsNothing) {
  Rng rng(14);
  const Graph g = connected_gnp(30, 0.15, rng);
  for (const auto strategy :
       {ReconvergeStrategy::kIncremental, ReconvergeStrategy::kFullReflood}) {
    ReconvergenceSim sim(g, TreeRule::k_connecting(1), strategy);
    const std::size_t before = sim.spanner().size();

    // Literally no events.
    auto stats = sim.apply_batch({});
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.transmissions, 0u);
    EXPECT_EQ(stats.receptions, 0u);
    EXPECT_EQ(stats.wire_bytes, 0u);
    EXPECT_EQ(stats.advertising_nodes, 0u);

    // All-no-op events (re-adding present edges) must also be free.
    const Edge e = g.edges()[0];
    const GraphEvent noop[] = {GraphEvent::edge_up(e.u, e.v)};
    stats = sim.apply_batch(noop);
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.transmissions, 0u);
    EXPECT_EQ(sim.spanner().size(), before);
  }
}

TEST(Reconvergence, RefloodBatchEqualsFreshDistributedRun) {
  // The strawman's per-batch cost and result must be exactly a cold-start
  // run of Algorithm RemSpan on the new snapshot.
  Rng rng(15);
  const Graph g = connected_gnp(40, 0.12, rng);
  const TreeRule cfg = TreeRule::k_connecting(1);
  const ChurnTrace trace = random_edge_churn_trace(g, 4, 4, 0.0, 80);

  ReconvergenceSim sim(g, cfg, ReconvergeStrategy::kFullReflood);
  DynamicGraph shadow(g);
  for (const auto& batch : trace.batches) {
    const auto stats = sim.apply_batch(batch);
    shadow.apply_all(batch);
    const auto snapshot = shadow.snapshot();
    const auto fresh = run_remspan_distributed(*snapshot, cfg);
    EXPECT_EQ(stats.rounds, fresh.rounds);
    EXPECT_EQ(stats.transmissions, fresh.stats.transmissions);
    EXPECT_EQ(stats.receptions, fresh.stats.receptions);
    EXPECT_EQ(stats.payload_words, fresh.stats.payload_words);
    EXPECT_EQ(sim.spanner().edge_list(), fresh.spanner.edge_list());
  }
}

TEST(Reconvergence, DeterministicStatsForFixedSeed) {
  Rng rng(16);
  const auto gg = largest_component(uniform_unit_ball_graph(60, 4.0, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(gg, 5, 2, 81);
  const TreeRule cfg = TreeRule::k_connecting(1);

  for (const auto strategy :
       {ReconvergeStrategy::kIncremental, ReconvergeStrategy::kFullReflood}) {
    ReconvergenceSim a(gg.graph, cfg, strategy);
    ReconvergenceSim b(gg.graph, cfg, strategy);
    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      const auto sa = a.apply_batch(trace.batches[i]);
      const auto sb = b.apply_batch(trace.batches[i]);
      EXPECT_EQ(sa.rounds, sb.rounds) << i;
      EXPECT_EQ(sa.transmissions, sb.transmissions) << i;
      EXPECT_EQ(sa.receptions, sb.receptions) << i;
      EXPECT_EQ(sa.payload_words, sb.payload_words) << i;
      EXPECT_EQ(sa.wire_bytes, sb.wire_bytes) << i;
      EXPECT_EQ(sa.advertising_nodes, sb.advertising_nodes) << i;
      EXPECT_EQ(sa.spanner_edges, sb.spanner_edges) << i;
    }
  }
}

TEST(Reconvergence, LocalizedChurnAdvertisesLocally) {
  // One flipped edge dirties only the ball around its endpoints: the
  // incremental batch must involve far fewer advertisers and messages than
  // the cold start on a graph much larger than the ball.
  Rng rng(17);
  const auto gg = largest_component(uniform_unit_ball_graph(150, 7.0, 2, rng));
  const Graph& g = gg.graph;
  const TreeRule cfg = TreeRule::k_connecting(1);

  ReconvergenceSim inc(g, cfg, ReconvergeStrategy::kIncremental);
  const Edge e = g.edges()[g.num_edges() / 2];
  const GraphEvent down[] = {GraphEvent::edge_down(e.u, e.v)};
  const auto stats = inc.apply_batch(down);

  EXPECT_GT(stats.advertising_nodes, 0u);
  EXPECT_LT(stats.advertising_nodes, g.num_nodes() / 4);
  EXPECT_LT(stats.transmissions, inc.initial_stats().transmissions / 4);
  EXPECT_EQ(inc.spanner().edge_list(), scratch_spanner(inc.graph(), cfg).edge_list());
}

TEST(Reconvergence, MprDistributedMatchesCentralizedUnion) {
  // The OLSR MPR baseline rides the same pipeline: its distributed union
  // must equal olsr_mpr_spanner on every snapshot.
  Rng rng(18);
  const Graph g = connected_gnp(45, 0.15, rng);
  const TreeRule cfg = TreeRule::mpr();
  EXPECT_EQ(cfg.dirty_radius(), 1u);
  EXPECT_EQ(expected_rounds(cfg), 3u);

  const auto fresh = run_remspan_distributed(g, cfg);
  EXPECT_EQ(fresh.spanner, olsr_mpr_spanner(g));
  EXPECT_EQ(fresh.rounds, expected_rounds(cfg));
}

TEST(Reconvergence, LosslessRunsStopAtExactlyThePredictedRound) {
  // The paper's schedule is exact: a lossless run terminates by quiescence
  // at precisely expected_rounds() = 1 + 2*scope = 2r - 1 + 2*beta. The
  // kLosslessRoundSlack in round_budget() is a hang guard, never consumed.
  Rng rng(21);
  const Graph g = connected_gnp(40, 0.15, rng);
  const TreeRule configs[] = {
      TreeRule::k_connecting(1),
      TreeRule::two_connecting(2),
      TreeRule::r_beta(3, 1, TreeAlgorithm::kGreedy),
      TreeRule::r_beta(3, 1, TreeAlgorithm::kMis),
      TreeRule::mpr(),
  };
  for (const TreeRule& cfg : configs) {
    ASSERT_GT(round_budget(cfg), expected_rounds(cfg));  // slack, not schedule
    const auto fresh = run_remspan_distributed(g, cfg);
    EXPECT_EQ(fresh.rounds, expected_rounds(cfg)) << cfg.name();

    // The churn driver's cold start follows the same exact schedule...
    ReconvergenceSim sim(g, cfg, ReconvergeStrategy::kIncremental);
    EXPECT_EQ(sim.initial_stats().rounds, expected_rounds(cfg)) << cfg.name();

    // ...and so does every non-empty lossless batch.
    const Edge e = g.edges()[3];
    const GraphEvent down[] = {GraphEvent::edge_down(e.u, e.v)};
    EXPECT_EQ(sim.apply_batch(down).rounds, expected_rounds(cfg)) << cfg.name();
  }
}

TEST(Reconvergence, NodeOutageAndRecovery) {
  // A node going down removes its links; coming back restores them. The
  // protocol state must track both transitions exactly.
  Rng rng(19);
  const Graph g = connected_gnp(36, 0.15, rng);
  const TreeRule cfg = TreeRule::k_connecting(1);

  ReconvergenceSim inc(g, cfg, ReconvergeStrategy::kIncremental);
  ReconvergenceSim ref(g, cfg, ReconvergeStrategy::kFullReflood);
  const NodeId victim = 7;

  const GraphEvent down[] = {GraphEvent::node_down(victim)};
  inc.apply_batch(down);
  ref.apply_batch(down);
  expect_same_converged_state(inc, ref, "node down");
  EXPECT_EQ(inc.spanner().edge_list(), scratch_spanner(inc.graph(), cfg).edge_list());
  EXPECT_TRUE(inc.node_tree(victim).empty());

  const GraphEvent up[] = {GraphEvent::node_up(victim)};
  inc.apply_batch(up);
  ref.apply_batch(up);
  expect_same_converged_state(inc, ref, "node up");
  EXPECT_EQ(inc.spanner().edge_list(), scratch_spanner(inc.graph(), cfg).edge_list());
}

}  // namespace
}  // namespace remspan
