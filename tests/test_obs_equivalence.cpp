// The determinism contract of src/obs: trace and metric content never feeds
// back into computation. Every pipeline — centralized builds, incremental
// maintenance, the distributed protocol under loss — must produce
// bit-identical outputs with sinks installed and without. These tests are
// what lets every hook in the engine stay un-reviewed for feedback: any
// instrument influencing a result fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/remote_spanner.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "graph/connectivity.hpp"
#include "graph/graphio.hpp"
#include "obs/obs.hpp"
#include "support/corpus.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

/// The shared single-topology corpus (tests/support/corpus.hpp).
Graph test_graph(std::uint64_t seed) { return testsupport::observability_graph(seed); }

TEST(ObsEquivalence, CentralizedBuildsBitIdenticalWithSinksOn) {
  const Graph g = test_graph(11);
  const EdgeSet plain_th2 = build_k_connecting_spanner(g, 2);
  const EdgeSet plain_th1 = build_low_stretch_remote_spanner(g, 0.5);

  obs::Registry reg;
  obs::TraceBuffer buf;
  const obs::ScopedSinks sinks(&reg, &buf);
  EXPECT_EQ(build_k_connecting_spanner(g, 2).edge_list(), plain_th2.edge_list());
  EXPECT_EQ(build_low_stretch_remote_spanner(g, 0.5).edge_list(), plain_th1.edge_list());
  // The run was observed, not just unchanged: the hooks did fire.
  const obs::Snapshot s = reg.snapshot();
  EXPECT_GT(s.counters.at("union.builds"), 0u);
  EXPECT_GT(s.counters.at("domtree.builds"), 0u);
  EXPECT_GT(s.counters.at("bfs.runs"), 0u);
}

TEST(ObsEquivalence, GeneratorOutputBitIdenticalWithSinksOn) {
  const auto generate = [] {
    Rng rng(41);
    return largest_component(random_unit_disk_graph(14.0, 900.0, rng));
  };
  const auto same = [](const GeometricGraph& a, const GeometricGraph& b) {
    const auto ea = a.graph.edges();
    const auto eb = b.graph.edges();
    if (a.graph.num_nodes() != b.graph.num_nodes() || a.points.size() != b.points.size() ||
        !std::equal(ea.begin(), ea.end(), eb.begin(), eb.end())) {
      return false;
    }
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      const auto pa = a.points.point(i);
      const auto pb = b.points.point(i);
      if (!std::equal(pa.begin(), pa.end(), pb.begin(), pb.end())) return false;
    }
    return true;
  };
  const GeometricGraph plain = generate();

  obs::Registry reg;
  obs::TraceBuffer buf;
  const obs::ScopedSinks sinks(&reg, &buf);
  EXPECT_TRUE(same(generate(), plain));
  const obs::Snapshot s = reg.snapshot();
  EXPECT_GT(s.counters.at("geom.pair_tests"), plain.graph.num_edges());
  std::vector<std::string> spans;
  for (const obs::TraceEvent& e : buf.events()) {
    if (e.ph == obs::kPhaseBegin) spans.emplace_back(e.name);
  }
  // The CSR build nests inside the generator span; this graph is one
  // component, so largest_component returns it without a second build.
  EXPECT_EQ(spans, (std::vector<std::string>{"geom.unit_ball_graph", "graph.from_canonical_edges",
                                              "geom.largest_component"}));
}

TEST(ObsEquivalence, GraphIngestBitIdenticalWithSinksOn) {
  // Large enough for several parse chunks and fill ranges.
  Rng rng(29);
  const double side = std::sqrt(40000.0 * std::numbers::pi / 10.0);
  const Graph source = random_unit_disk_graph(side, 40000.0, rng).graph;
  std::ostringstream out;
  write_edge_list(out, source);
  const std::string text = out.str();
  const std::vector<Edge> edges(source.edges().begin(), source.edges().end());
  const auto ingest = [&] {
    std::istringstream in(text);
    return std::pair{read_edge_list(in), Graph::from_canonical_edges(source.num_nodes(), edges)};
  };
  const auto same = [](const Graph& a, const Graph& b) {
    if (a.num_nodes() != b.num_nodes() || a.max_degree() != b.max_degree() ||
        !std::ranges::equal(a.edges(), b.edges())) {
      return false;
    }
    for (NodeId u = 0; u < a.num_nodes(); ++u) {
      if (!std::ranges::equal(a.neighbors(u), b.neighbors(u)) ||
          !std::ranges::equal(a.incident_edges(u), b.incident_edges(u))) {
        return false;
      }
    }
    return true;
  };
  const auto [plain_read, plain_fill] = ingest();

  obs::Registry reg;
  obs::TraceBuffer buf;
  const obs::ScopedSinks sinks(&reg, &buf);
  const auto [read, fill] = ingest();
  EXPECT_TRUE(same(read, plain_read));
  EXPECT_TRUE(same(fill, plain_fill));
  EXPECT_TRUE(same(read, fill));
  std::vector<std::string> spans;
  for (const obs::TraceEvent& e : buf.events()) {
    if (e.ph == obs::kPhaseBegin) spans.emplace_back(e.name);
  }
  EXPECT_EQ(spans, (std::vector<std::string>{"graph.read_edge_list", "graph.from_canonical_edges",
                                              "graph.from_canonical_edges"}));
  const std::uint64_t csr_bytes = (source.num_nodes() + 1) * sizeof(std::size_t) +
                                  2 * source.num_edges() * (sizeof(NodeId) + sizeof(EdgeId));
  EXPECT_EQ(reg.snapshot().counters.at("graph.csr_bytes"), 2 * csr_bytes);
}

TEST(ObsEquivalence, IncrementalBatchesBitIdenticalWithSinksOn) {
  std::vector<std::string> spans;
  obs::Snapshot metrics;
  std::vector<bool> changed;
  auto run = [&](bool observed) {
    const Graph initial = test_graph(23);
    IncrementalSpanner inc(initial, TreeRule::k_connecting(1));
    obs::Registry reg;
    obs::TraceBuffer buf;
    std::optional<obs::ScopedSinks> sinks;
    if (observed) sinks.emplace(&reg, &buf);
    Rng rng(99);
    std::vector<std::vector<Edge>> spanners;
    changed.clear();
    for (int batch = 0; batch < 6; ++batch) {
      std::vector<GraphEvent> events;
      for (int e = 0; e < 8; ++e) {
        const auto n = static_cast<std::int64_t>(initial.num_nodes());
        const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        const auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        if (u == v) continue;
        events.push_back(rng.bernoulli(0.5) ? GraphEvent::edge_up(u, v)
                                            : GraphEvent::edge_down(u, v));
      }
      const ChurnBatchStats stats = inc.apply_batch(events);
      changed.push_back(stats.inserted_edges + stats.removed_edges > 0);
      spanners.push_back(inc.spanner().edge_list());
    }
    if (observed) {
      for (const obs::TraceEvent& e : buf.events()) {
        if (e.ph == obs::kPhaseBegin) spans.emplace_back(e.name);
      }
      metrics = reg.snapshot();
    }
    return spanners;
  };
  EXPECT_EQ(run(false), run(true));
  // The exact per-batch phase ledger: a batch that changed the live
  // topology runs all five phases, a net no-op only takes its snapshot.
  std::vector<std::string> expected;
  for (const bool c : changed) {
    expected.insert(expected.end(), {"inc.apply_batch", "dynamic.snapshot"});
    if (c) expected.insert(expected.end(), {"inc.expand", "inc.retire", "inc.rebuild", "inc.publish"});
  }
  EXPECT_NE(std::count(changed.begin(), changed.end(), true), 0);
  EXPECT_EQ(spans, expected);
  EXPECT_GT(metrics.counters.at("dynamic.blocks_copied"), 0u);
  EXPECT_GE(metrics.counters.at("dynamic.bytes_copied"),
            metrics.counters.at("dynamic.blocks_copied"));
}

TEST(ObsEquivalence, DistributedProtocolBitIdenticalWithSinksOn) {
  const Graph g = test_graph(37);
  const TreeRule config = TreeRule::k_connecting(1);
  // A lossy channel forces the reliable variant: retransmission, flooding
  // and per-round network hooks all fire.
  FaultConfig faults;
  faults.link.drop = 0.2;
  faults.link.seed = 5;

  const DistributedRunResult plain = run_remspan_distributed(g, config, faults);

  obs::Registry reg;
  obs::TraceBuffer buf;
  const obs::ScopedSinks sinks(&reg, &buf);
  const DistributedRunResult observed = run_remspan_distributed(g, config, faults);

  EXPECT_EQ(observed.spanner.edge_list(), plain.spanner.edge_list());
  EXPECT_EQ(observed.rounds, plain.rounds);
  EXPECT_EQ(observed.stats.transmissions, plain.stats.transmissions);
  EXPECT_EQ(observed.stats.receptions, plain.stats.receptions);
  EXPECT_EQ(observed.stats.drops, plain.stats.drops);

  const obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.at("sim.rounds"), plain.rounds);
  EXPECT_EQ(s.counters.at("sim.msgs_offered"), plain.stats.transmissions);
  EXPECT_EQ(s.counters.at("sim.msgs_delivered"), plain.stats.receptions);
  EXPECT_EQ(s.counters.at("sim.msgs_dropped"), plain.stats.drops);
  EXPECT_GT(s.counters.at("sim.retransmissions"), 0u);
  EXPECT_GT(s.histograms.at("sim.backoff_interval").count, 0u);
  // Simulator trace lanes are wall-clock-free: ts is the round number, so
  // the trace itself is deterministic too.
  bool saw_sim_event = false;
  for (const obs::TraceEvent& e : buf.events()) {
    if (e.pid != obs::kSimPid) continue;
    saw_sim_event = true;
    EXPECT_EQ(e.ts, static_cast<double>(static_cast<std::uint64_t>(e.ts / obs::kRoundMicros)) *
                        obs::kRoundMicros);
  }
  EXPECT_TRUE(saw_sim_event);
}

}  // namespace
}  // namespace remspan
