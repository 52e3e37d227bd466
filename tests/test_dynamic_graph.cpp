// DynamicGraph update semantics, snapshot determinism, diff_graphs change
// lists, multi-source bounded BFS, and churn-trace generation/round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>

#include "dynamic/churn_trace.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"
#include "graph/graphio.hpp"
#include "graph/views.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

std::set<Edge> edge_set_of(const Graph& g) {
  const std::vector<Edge> edges = g.edge_list();
  return {edges.begin(), edges.end()};
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

TEST(DiffGraphs, ListsExactlyTheChangedEdgesWithTheirIds) {
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

    // The lists are exactly the two set differences, in canonical order,
    // and each id names its edge in its own graph.
    std::vector<Edge> expected_removed;
    std::set_difference(old_set.begin(), old_set.end(), new_set.begin(), new_set.end(),
                        std::back_inserter(expected_removed));
    std::vector<Edge> expected_inserted;
    std::set_difference(new_set.begin(), new_set.end(), old_set.begin(), old_set.end(),
                        std::back_inserter(expected_inserted));
    EXPECT_EQ(delta.removed, expected_removed);
    EXPECT_EQ(delta.inserted, expected_inserted);
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

/// Everything a reader can see of a graph: its rows with their ids, the
/// slot table, and the counts.
struct GraphImage {
  std::vector<std::vector<NodeId>> rows;
  std::vector<std::vector<EdgeId>> ids;
  std::vector<Edge> slots;
  std::size_t edges = 0;
  Dist max_degree = 0;

  explicit GraphImage(const Graph& g) : edges(g.num_edges()), max_degree(g.max_degree()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      rows.emplace_back(g.neighbors(u).begin(), g.neighbors(u).end());
      ids.emplace_back(g.incident_edges(u).begin(), g.incident_edges(u).end());
    }
    for (EdgeId id = 0; id < g.edge_id_bound(); ++id) slots.push_back(g.edge(id));
  }
  friend bool operator==(const GraphImage&, const GraphImage&) = default;
};

TEST(DynamicGraph, ChangeRecordMatchesDiffAndKeepsSurvivorSlots) {
  Rng rng(5);
  DynamicGraph dg(gnp(200, 0.04, rng));
  auto prev = dg.snapshot();
  for (int step = 0; step < 40; ++step) {
    for (int i = 0; i < 6; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform(200));
      const auto b = static_cast<NodeId>((a + 1 + rng.uniform(199)) % 200);
      const double roll = rng.uniform_real();
      if (roll < 0.1) {
        dg.apply(dg.node_up(a) ? GraphEvent::node_down(a) : GraphEvent::node_up(a));
      } else {
        dg.apply(roll < 0.55 ? GraphEvent::edge_down(a, b) : GraphEvent::edge_up(a, b));
      }
    }
    const auto cur = dg.snapshot();
    const GraphDelta& change = dg.last_change();
    const GraphDelta diff = diff_graphs(*prev, *cur);
    EXPECT_EQ(change.removed, diff.removed) << "step " << step;
    EXPECT_EQ(change.removed_old_ids, diff.removed_old_ids) << "step " << step;
    EXPECT_EQ(change.inserted, diff.inserted) << "step " << step;
    EXPECT_EQ(change.inserted_new_ids, diff.inserted_new_ids) << "step " << step;
    // Every edge live in both snapshots keeps its slot.
    for (const Edge& e : prev->edge_list()) {
      if (cur->has_edge(e.u, e.v)) {
        EXPECT_EQ(cur->find_edge(e.u, e.v), prev->find_edge(e.u, e.v)) << "step " << step;
      }
    }
    // A net no-op batch publishes nothing; the snapshot object stays.
    EXPECT_EQ(cur == prev, change.empty());
    // A snapshot() with no update since returns the same object and an
    // empty change record.
    EXPECT_EQ(dg.snapshot(), cur);
    EXPECT_TRUE(dg.last_change().empty());
    EXPECT_EQ(cur->num_edges(), edge_set_of(*cur).size());
    if (step >= 2) EXPECT_FALSE(cur->canonical_ids());
    prev = cur;
  }
}

TEST(CopyOnWrite, HeldSnapshotStaysByteIdenticalThroughLaterBatches) {
  // 300 nodes span three row blocks and about 1350 edges two slot blocks.
  Rng rng(21);
  const Graph initial = gnp(300, 0.03, rng);
  ASSERT_GT(initial.num_edges(), std::size_t{Graph::kSlotBlockSlots});
  DynamicGraph dg(initial);
  const auto snap0 = dg.snapshot();
  const GraphImage image0(*snap0);
  EXPECT_EQ(image0, GraphImage(initial));

  // First batch: drop edges, leaving holes in the next snapshot.
  const std::vector<Edge> edges = initial.edge_list();
  for (std::size_t i = 0; i < edges.size(); i += 9) {
    dg.apply(GraphEvent::edge_down(edges[i].u, edges[i].v));
  }
  const auto snap1 = dg.snapshot();
  const GraphImage image1(*snap1);
  const std::vector<EdgeId> holes = dg.last_change().removed_old_ids;
  ASSERT_FALSE(holes.empty());
  for (const EdgeId id : holes) EXPECT_EQ(snap1->edge(id), Edge{});

  // A reader hashes both held snapshots while later batches reuse the
  // holes, insert, remove and toggle nodes.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!(GraphImage(*snap1) == image1) || !(GraphImage(*snap0) == image0)) {
        mismatches.fetch_add(1);
      }
    }
  });
  std::set<EdgeId> reused;
  for (int step = 0; step < 12; ++step) {
    for (int i = 0; i < 10; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform(300));
      const auto b = static_cast<NodeId>((a + 1 + rng.uniform(299)) % 300);
      if (i == 0 && step % 4 == 3) {
        dg.apply(dg.node_up(a) ? GraphEvent::node_down(a) : GraphEvent::node_up(a));
      } else {
        dg.apply(rng.bernoulli(0.7) ? GraphEvent::edge_up(a, b) : GraphEvent::edge_down(a, b));
      }
    }
    const auto cur = dg.snapshot();
    for (const EdgeId id : holes) {
      if (id < cur->edge_id_bound() && cur->edge(id) != Edge{}) reused.insert(id);
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(GraphImage(*snap1), image1);
  EXPECT_EQ(GraphImage(*snap0), image0);
  EXPECT_FALSE(reused.empty()) << "no later batch reused a slot the first one freed";
}

TEST(CopyOnWrite, FreedSlotIsReusedOnlyFromTheNextBatch) {
  DynamicGraph dg(GraphBuilder(6).build());
  dg.apply_all(std::vector<GraphEvent>{GraphEvent::edge_up(0, 1), GraphEvent::edge_up(1, 2),
                                       GraphEvent::edge_up(2, 3)});
  const auto g1 = dg.snapshot();
  const EdgeId freed = g1->find_edge(1, 2);
  ASSERT_NE(freed, kInvalidEdge);
  ASSERT_EQ(g1->edge_id_bound(), 3u);

  // The batch that frees a slot cannot hand it out again...
  dg.apply_all(std::vector<GraphEvent>{GraphEvent::edge_down(1, 2), GraphEvent::edge_up(3, 4)});
  const auto g2 = dg.snapshot();
  EXPECT_EQ(dg.last_change().removed_old_ids, std::vector<EdgeId>{freed});
  EXPECT_NE(g2->find_edge(3, 4), freed);
  EXPECT_EQ(g2->edge_id_bound(), 4u);
  EXPECT_EQ(g2->edge(freed), Edge{});

  // ...the next one takes it first, and the held snapshots do not move.
  dg.apply(GraphEvent::edge_up(4, 5));
  const auto g3 = dg.snapshot();
  EXPECT_EQ(g3->find_edge(4, 5), freed);
  EXPECT_EQ(dg.last_change().inserted_new_ids, std::vector<EdgeId>{freed});
  EXPECT_EQ(g1->edge(freed), (Edge{1, 2}));
  EXPECT_EQ(g2->edge(freed), Edge{});

  // Down then up within one batch is no change: the edge keeps its slot
  // and the snapshot object stays.
  const EdgeId kept = g3->find_edge(0, 1);
  dg.apply_all(std::vector<GraphEvent>{GraphEvent::edge_down(0, 1), GraphEvent::edge_up(0, 1)});
  EXPECT_EQ(dg.snapshot(), g3);
  EXPECT_EQ(dg.snapshot()->find_edge(0, 1), kept);
}

TEST(CopyOnWrite, OneEventBatchCopiesOnlyItsBlocks) {
  Rng rng(8);
  const Graph initial = gnp(2000, 0.005, rng);
  DynamicGraph dg(initial);
  obs::Registry reg;
  obs::ScopedSinks sinks(&reg, nullptr);
  const Edge e = initial.edge_list()[initial.num_edges() / 2];
  dg.apply(GraphEvent::edge_down(e.u, e.v));
  (void)dg.snapshot();
  // Two rows (one or two row blocks) and the freed slot's block.
  EXPECT_LE(reg.counter("dynamic.blocks_copied").value(), 3u);
  EXPECT_GE(reg.counter("dynamic.blocks_copied").value(), 2u);
  EXPECT_LT(reg.counter("dynamic.bytes_copied").value(), 64u * 1024u);
}

TEST(CopyOnWrite, ListingsOfASnapshotMatchAFreshCanonicalGraph) {
  // Every edge listing walks rows in canonical node-pair order, so a
  // snapshot with holes and reused slots prints exactly what a fresh
  // canonical graph with the same edges prints.
  Rng rng(13);
  DynamicGraph dg(gnp(150, 0.05, rng));
  for (int step = 0; step < 5; ++step) {
    for (int i = 0; i < 12; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform(150));
      const auto b = static_cast<NodeId>((a + 1 + rng.uniform(149)) % 150);
      dg.apply(rng.bernoulli(0.5) ? GraphEvent::edge_up(a, b) : GraphEvent::edge_down(a, b));
    }
    (void)dg.snapshot();
  }
  // A removal-only last batch leaves holes.
  const std::vector<Edge> before = dg.snapshot()->edge_list();
  for (std::size_t i = 0; i < before.size(); i += 40) {
    dg.apply(GraphEvent::edge_down(before[i].u, before[i].v));
  }
  const auto snap = dg.snapshot();
  ASSERT_FALSE(snap->canonical_ids());
  ASSERT_GT(snap->edge_id_bound(), snap->num_edges());  // holes
  EXPECT_THROW((void)snap->edges(), CheckError);
  const Graph fresh = Graph::from_canonical_edges(snap->num_nodes(), snap->edge_list());
  EXPECT_EQ(fresh.max_degree(), snap->max_degree());
  const auto text = [](const Graph& g) {
    std::ostringstream out;
    write_edge_list(out, g);
    return out.str();
  };
  EXPECT_EQ(text(*snap), text(fresh));
  // The same node pairs selected on both graphs list and draw the same.
  EdgeSet on_snap(*snap);
  EdgeSet on_fresh(fresh);
  const std::vector<Edge> edges = fresh.edge_list();
  for (std::size_t i = 0; i < edges.size(); i += 3) {
    on_snap.insert(edges[i].u, edges[i].v);
    on_fresh.insert(edges[i].u, edges[i].v);
  }
  EXPECT_EQ(on_snap.edge_list(), on_fresh.edge_list());
  EXPECT_EQ(to_dot(*snap, &on_snap, "H"), to_dot(fresh, &on_fresh, "H"));
  EXPECT_EQ(EdgeSet(*snap, true).edge_list(), edges);
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

TEST(ChurnTrace, MalformedTokensThrowCheckErrorNamingTheLine) {
  // Every token is parsed whole: a sign, a suffix, an extra token or a node
  // count over the id limit is a CheckError naming its line. (The memory
  // branch of the node check is machine-dependent; test_graph.cpp's
  // NodeBudget test covers it directly.)
  const std::pair<const char*, const char*> malformed[] = {
      {"churntrace 1\nnodes 4\nedges 1\n0 -1\n", "line 4"},
      {"churntrace 1\nnodes 4\nedges 1\n0 1x\n", "line 4"},
      {"churntrace 1\nnodes 4\nedges 1\n0 1 2\n", "line 4"},
      {"churntrace 1\nnodes 4\nedges 1\n0 4\n", "line 4"},
      {"churntrace 1\nnodes -4\n", "line 2"},
      {"churntrace 1\nnodes 4294967295\nedges 0\nbatches 0\n", "line 2"},
      {"churntrace 1\nnodes 99999999999\nedges 0\nbatches 0\n", "line 2"},
      {"churntrace 1\nnodes 4\nedges 0\nbatches 1\nbatch 1\ne+ 0 +1\n", "line 6"},
      {"churntrace 1\nnodes 4\nedges 0\nbatches 1\nbatch 1\nn- 2 3\n", "line 6"},
      {"churntrace 2\n", "line 1"},
  };
  for (const auto& [text, where] : malformed) {
    std::istringstream in(text);
    try {
      (void)read_churn_trace(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    }
  }
  // Blank lines and surrounding blanks are fine.
  std::istringstream ok("churntrace 1\n\nnodes 3\t\nedges 1\n 0  2 \r\nbatches 1\nbatch 1\nn- 1\n");
  const ChurnTrace trace = read_churn_trace(ok);
  EXPECT_EQ(trace.initial_edges, (std::vector<Edge>{{0, 2}}));
  EXPECT_EQ(trace.batches.at(0).at(0), GraphEvent::node_down(1));
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
