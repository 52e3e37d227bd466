// DynamicGraph update semantics, snapshot determinism, diff_graphs id
// mapping, multi-source bounded BFS, and churn-trace generation/round-trip.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "dynamic/churn_trace.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/bfs.hpp"
#include "graph/views.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

std::set<Edge> edge_set_of(const Graph& g) {
  return {g.edges().begin(), g.edges().end()};
}

bool edge_less(const Edge& x, const Edge& y) {
  return x.u != y.u ? x.u < y.u : x.v < y.v;
}

TEST(DynamicGraph, ApplyIsIdempotentPerState) {
  DynamicGraph dg(4);
  EXPECT_TRUE(dg.apply(GraphEvent::edge_up(0, 1)));
  EXPECT_FALSE(dg.apply(GraphEvent::edge_up(1, 0)));  // canonical duplicate
  EXPECT_TRUE(dg.apply(GraphEvent::edge_down(0, 1)));
  EXPECT_FALSE(dg.apply(GraphEvent::edge_down(0, 1)));
  EXPECT_FALSE(dg.apply(GraphEvent::node_up(2)));  // already up
  EXPECT_TRUE(dg.apply(GraphEvent::node_down(2)));
  EXPECT_FALSE(dg.apply(GraphEvent::node_down(2)));
  EXPECT_TRUE(dg.apply(GraphEvent::node_up(2)));
}

TEST(DynamicGraph, VersionBumpsOnlyOnChange) {
  DynamicGraph dg(3);
  const std::uint64_t v0 = dg.version();
  dg.apply(GraphEvent::edge_up(0, 1));
  EXPECT_EQ(dg.version(), v0 + 1);
  dg.apply(GraphEvent::edge_up(0, 1));
  EXPECT_EQ(dg.version(), v0 + 1);
}

TEST(DynamicGraph, OutOfRangeTripsCheck) {
  DynamicGraph dg(3);
  EXPECT_THROW(dg.apply(GraphEvent::edge_up(0, 3)), CheckError);
  EXPECT_THROW(dg.apply(GraphEvent::node_down(3)), CheckError);
  EXPECT_THROW((void)dg.apply(GraphEvent{GraphEventKind::kEdgeUp, 1, 1}), CheckError);
}

TEST(DynamicGraph, NodeDownMasksEdgesAndUpRestores) {
  const Graph g = cycle_graph(5);
  DynamicGraph dg(g);
  EXPECT_EQ(dg.snapshot()->num_edges(), 5u);
  dg.apply(GraphEvent::node_down(0));
  const auto masked = dg.snapshot();
  EXPECT_EQ(masked->num_edges(), 3u);  // {0,1} and {0,4} masked
  EXPECT_EQ(masked->degree(0), 0u);
  dg.apply(GraphEvent::node_up(0));
  EXPECT_EQ(edge_set_of(*dg.snapshot()), edge_set_of(g));
}

TEST(DynamicGraph, SnapshotCachedPerVersion) {
  DynamicGraph dg(4);
  dg.apply(GraphEvent::edge_up(1, 2));
  const auto a = dg.snapshot();
  const auto b = dg.snapshot();
  EXPECT_EQ(a.get(), b.get());
  dg.apply(GraphEvent::edge_up(2, 3));
  EXPECT_NE(dg.snapshot().get(), a.get());
}

TEST(DynamicGraph, SnapshotMatchesReplayedEventsOnRandomSequences) {
  Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    const NodeId n = 20;
    DynamicGraph dg(n);
    std::set<Edge> expected;
    std::vector<bool> up(n, true);
    for (int step = 0; step < 200; ++step) {
      const auto a = static_cast<NodeId>(rng.uniform(n));
      auto b = static_cast<NodeId>(rng.uniform(n));
      if (a == b) b = (b + 1) % n;
      const double roll = rng.uniform_real();
      if (roll < 0.45) {
        dg.apply(GraphEvent::edge_up(a, b));
        expected.insert(make_edge(a, b));
      } else if (roll < 0.8) {
        dg.apply(GraphEvent::edge_down(a, b));
        expected.erase(make_edge(a, b));
      } else if (roll < 0.9) {
        dg.apply(GraphEvent::node_down(a));
        up[a] = false;
      } else {
        dg.apply(GraphEvent::node_up(a));
        up[a] = true;
      }
    }
    std::set<Edge> live;
    for (const Edge& e : expected) {
      if (up[e.u] && up[e.v]) live.insert(e);
    }
    EXPECT_EQ(edge_set_of(*dg.snapshot()), live);
  }
}

TEST(DiffGraphs, MapsSurvivorsAndListsChanges) {
  Rng rng(11);
  for (int rep = 0; rep < 20; ++rep) {
    const Graph old_g = gnp(30, 0.15, rng);
    DynamicGraph dg(old_g);
    // Random churn: remove some existing edges, add some new pairs.
    for (int step = 0; step < 25; ++step) {
      const auto a = static_cast<NodeId>(rng.uniform(30));
      auto b = static_cast<NodeId>(rng.uniform(30));
      if (a == b) b = (b + 1) % 30;
      if (rng.bernoulli(0.5)) {
        dg.apply(GraphEvent::edge_down(a, b));
      } else {
        dg.apply(GraphEvent::edge_up(a, b));
      }
    }
    const auto new_g = dg.snapshot();
    const GraphDelta delta = diff_graphs(old_g, *new_g);

    const std::set<Edge> old_set = edge_set_of(old_g);
    const std::set<Edge> new_set = edge_set_of(*new_g);
    // removed = old \ new, inserted = new \ old, both canonically sorted.
    std::set<Edge> removed(delta.removed.begin(), delta.removed.end());
    std::set<Edge> inserted(delta.inserted.begin(), delta.inserted.end());
    for (const Edge& e : old_set) {
      EXPECT_EQ(removed.contains(e), !new_set.contains(e));
    }
    for (const Edge& e : new_set) {
      EXPECT_EQ(inserted.contains(e), !old_set.contains(e));
    }
    EXPECT_TRUE(std::is_sorted(delta.removed.begin(), delta.removed.end(), edge_less));
    EXPECT_TRUE(std::is_sorted(delta.inserted.begin(), delta.inserted.end(), edge_less));

    // The id map sends every survivor to the same endpoints; removed edges
    // map to kInvalidEdge and carry their old id in removed_old_ids.
    ASSERT_EQ(delta.old_to_new.size(), old_g.num_edges());
    for (EdgeId id = 0; id < old_g.num_edges(); ++id) {
      const Edge& e = old_g.edge(id);
      if (new_set.contains(e)) {
        ASSERT_NE(delta.old_to_new[id], kInvalidEdge);
        EXPECT_EQ(new_g->edge(delta.old_to_new[id]), e);
      } else {
        EXPECT_EQ(delta.old_to_new[id], kInvalidEdge);
      }
    }
    ASSERT_EQ(delta.removed_old_ids.size(), delta.removed.size());
    for (std::size_t i = 0; i < delta.removed.size(); ++i) {
      EXPECT_EQ(old_g.edge(delta.removed_old_ids[i]), delta.removed[i]);
    }
    ASSERT_EQ(delta.inserted_new_ids.size(), delta.inserted.size());
    for (std::size_t i = 0; i < delta.inserted.size(); ++i) {
      EXPECT_EQ(new_g->edge(delta.inserted_new_ids[i]), delta.inserted[i]);
    }

    // touched_endpoints: sorted unique endpoints of the symmetric difference.
    std::set<NodeId> expected_touched;
    for (const Edge& e : removed) {
      expected_touched.insert(e.u);
      expected_touched.insert(e.v);
    }
    for (const Edge& e : inserted) {
      expected_touched.insert(e.u);
      expected_touched.insert(e.v);
    }
    const auto touched = touched_endpoints(delta);
    EXPECT_EQ(std::set<NodeId>(touched.begin(), touched.end()), expected_touched);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
  }
}

TEST(MultiSourceBfs, DistanceIsMinOverSources) {
  Rng rng(13);
  for (int rep = 0; rep < 10; ++rep) {
    const Graph g = gnp(40, 0.08, rng);
    const std::vector<NodeId> sources = {3, 17, 17, 29};  // duplicate on purpose
    BoundedBfs multi(g.num_nodes());
    multi.run_multi(GraphView(g), sources, 3);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      Dist best = kUnreachable;
      for (const NodeId s : sources) {
        BoundedBfs single(g.num_nodes());
        single.run(GraphView(g), s, 3);
        best = std::min(best, single.dist(v));
      }
      EXPECT_EQ(multi.dist(v), best) << "node " << v;
    }
  }
}

TEST(MultiSourceBfs, ShellZeroHoldsUniqueSources) {
  const Graph g = path_graph(6);
  BoundedBfs bfs(g.num_nodes());
  const std::vector<NodeId> sources = {2, 4, 2};
  bfs.run_multi(GraphView(g), sources, 1);
  const auto shell0 = bfs.shell(0);
  EXPECT_EQ(std::set<NodeId>(shell0.begin(), shell0.end()), (std::set<NodeId>{2, 4}));
  EXPECT_EQ(bfs.parent(2), kInvalidNode);
  EXPECT_EQ(bfs.parent(4), kInvalidNode);
}

TEST(ChurnTrace, RoundTripsThroughText) {
  Rng rng(5);
  const auto gg = largest_component(uniform_unit_ball_graph(60, 4.0, 2, rng));
  const ChurnTrace traces[] = {
      random_edge_churn_trace(gg.graph, 4, 6, 0.2, 42),
      mobility_churn_trace(gg, 3, 2, 43),
      region_outage_trace(gg, 2, 1.5, 44),
  };
  for (const ChurnTrace& trace : traces) {
    std::stringstream io;
    write_churn_trace(io, trace);
    EXPECT_EQ(read_churn_trace(io), trace);
  }
}

TEST(ChurnTrace, OversizedDeclaredCountsThrowCheckError) {
  // Declared counts come straight from the file: a count far beyond what
  // the stream holds must end in a CheckError at the short stream, never in
  // a length_error / bad_alloc from sizing a vector up front.
  const char* const malformed[] = {
      "churntrace 1\nnodes 4\nedges 18446744073709551615\n0 1\n",
      "churntrace 1\nnodes 4\nedges 1\n0 1\nbatches 4000000000000\nbatch 1\ne- 0 1\n",
      "churntrace 1\nnodes 4\nedges 1\n0 1\nbatches 1\nbatch 18446744073709551615\ne- 0 1\n",
  };
  for (const char* text : malformed) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_churn_trace(in), CheckError) << text;
  }
}

TEST(ChurnTrace, GeneratorsAreDeterministic) {
  Rng rng(6);
  const auto gg = largest_component(uniform_unit_ball_graph(50, 4.0, 2, rng));
  EXPECT_EQ(random_edge_churn_trace(gg.graph, 5, 8, 0.1, 9),
            random_edge_churn_trace(gg.graph, 5, 8, 0.1, 9));
  EXPECT_EQ(mobility_churn_trace(gg, 5, 3, 9), mobility_churn_trace(gg, 5, 3, 9));
  EXPECT_EQ(region_outage_trace(gg, 3, 1.0, 9), region_outage_trace(gg, 3, 1.0, 9));
}

TEST(ChurnTrace, EventsReplayConsistently) {
  // Every generated event must change state when replayed in order: the
  // generators track the evolving topology, so no event is a no-op.
  Rng rng(8);
  const auto gg = largest_component(uniform_unit_ball_graph(70, 4.5, 2, rng));
  const ChurnTrace traces[] = {
      random_edge_churn_trace(gg.graph, 6, 10, 0.15, 21),
      mobility_churn_trace(gg, 6, 3, 22),
      region_outage_trace(gg, 3, 1.2, 23),
  };
  for (const ChurnTrace& trace : traces) {
    DynamicGraph dg(trace.initial_graph());
    for (const auto& batch : trace.batches) {
      EXPECT_EQ(dg.apply_all(batch), batch.size());
    }
  }
}

TEST(ChurnTrace, SingleMoverBatchesShareTheMover) {
  // With one mover per batch, every churned edge must be incident to that
  // mover: the batch's events all share a common endpoint.
  Rng rng(10);
  const auto gg = largest_component(uniform_unit_ball_graph(50, 4.0, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(gg, 8, 1, 31);
  for (const auto& batch : trace.batches) {
    if (batch.empty()) continue;
    for (const GraphEvent& ev : batch) {
      ASSERT_TRUE(ev.kind == GraphEventKind::kEdgeUp || ev.kind == GraphEventKind::kEdgeDown);
    }
    std::set<NodeId> common = {batch.front().u, batch.front().v};
    for (const GraphEvent& ev : batch) {
      std::set<NodeId> next;
      if (common.contains(ev.u)) next.insert(ev.u);
      if (common.contains(ev.v)) next.insert(ev.v);
      common = std::move(next);
    }
    EXPECT_FALSE(common.empty());
  }
}

TEST(RegionOutage, RecoveryRestoresInitialTopology) {
  Rng rng(12);
  const auto gg = largest_component(uniform_unit_ball_graph(60, 4.0, 2, rng));
  const ChurnTrace trace = region_outage_trace(gg, 4, 1.5, 51);
  DynamicGraph dg(trace.initial_graph());
  const std::set<Edge> initial = edge_set_of(*dg.snapshot());
  for (std::size_t b = 0; b < trace.batches.size(); ++b) {
    dg.apply_all(trace.batches[b]);
    if (b % 2 == 1) {
      // After every recovery batch the topology is back to the initial one.
      EXPECT_EQ(edge_set_of(*dg.snapshot()), initial);
    }
  }
}

}  // namespace
}  // namespace remspan
