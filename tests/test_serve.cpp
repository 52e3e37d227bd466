// The serve subsystem's correctness battery. Three suites, all named
// Serve* so the CI TSan job's regex picks them up:
//
//   ServeCoalesce    — the coalescing algebra: last-write-wins reduction,
//                      up/down annihilation, duplicate suppression, and
//                      bit-exact replay of queue-extracted batches vs the
//                      uncoalesced stream (edge and node interleavings).
//   ServeService     — epoch monotonicity, journal-replay bit-exactness,
//                      old-epoch snapshot keep-alive across N batches,
//                      deterministic admission control, graceful eviction.
//   ServeConcurrency — >= 4 reader threads hammering queries against live
//                      tenants while workers drain churn; every reader
//                      observes monotone epochs and internally consistent
//                      snapshots, and the final state is bit-exact vs a
//                      single-threaded IncrementalSession replay (the TSan
//                      coverage the acceptance criteria require).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "dynamic/churn_trace.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "serve/coalesce.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan::serve {
namespace {

using testsupport::churn_family;
using testsupport::equivalence_family;

/// A random event stream mixing edge toggles (within the node universe,
/// not restricted to initial edges — inserts exercised too) and node
/// liveness toggles, with deliberate repetition so coalescing has work.
std::vector<GraphEvent> random_stream(const Graph& g, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const NodeId n = g.num_nodes();
  std::vector<GraphEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform_real();
    if (roll < 0.2) {
      const NodeId u = static_cast<NodeId>(rng.uniform(n));
      events.push_back(rng.bernoulli(0.5) ? GraphEvent::node_down(u) : GraphEvent::node_up(u));
    } else {
      NodeId u = static_cast<NodeId>(rng.uniform(n));
      // Small id range => frequent repeats of the same edge cell.
      NodeId v = static_cast<NodeId>(rng.uniform(std::min<std::uint64_t>(n, 12)));
      if (u == v) v = (v + 1) % n;
      events.push_back(rng.bernoulli(0.5) ? GraphEvent::edge_up(u, v)
                                          : GraphEvent::edge_down(u, v));
    }
  }
  return events;
}

/// Canonical edge-list copy (comparable across distinct Graph objects).
std::vector<Edge> edge_list_of(const Graph& g) { return {g.edges().begin(), g.edges().end()}; }

/// Canonical live-topology fingerprint for final-state comparisons.
std::vector<Edge> snapshot_edges(DynamicGraph& dg) { return edge_list_of(*dg.snapshot()); }

// --- ServeCoalesce ---------------------------------------------------------

TEST(ServeCoalesce, LastWriteWinsReductionIsExact) {
  for (int family = 0; family < testsupport::kNumEquivalenceFamilies; ++family) {
    for (std::uint64_t seed : {1ull, 7ull}) {
      const Graph g = equivalence_family(family, seed);
      const std::vector<GraphEvent> stream = random_stream(g, 300, seed * 31 + family);
      const std::vector<GraphEvent> reduced = coalesce_events(stream);
      ASSERT_LE(reduced.size(), stream.size());

      DynamicGraph full(g);
      full.apply_all(stream);
      DynamicGraph coalesced(g);
      coalesced.apply_all(reduced);
      EXPECT_EQ(snapshot_edges(full), snapshot_edges(coalesced))
          << "family " << family << " seed " << seed;
    }
  }
}

TEST(ServeCoalesce, UpDownAnnihilation) {
  const Graph g = equivalence_family(0, 3);
  CoalescingQueue q(std::make_shared<const Graph>(g));

  // An absent edge: up then down cancels to nothing.
  NodeId a = 0;
  NodeId b = 1;
  while (g.has_edge(a, b)) ++b;  // find an absent pair
  const std::vector<GraphEvent> updown = {GraphEvent::edge_up(a, b), GraphEvent::edge_down(a, b)};
  const auto d1 = q.submit(updown);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(d1.coalesced, 2u);

  // A present edge: down then up cancels too.
  const Edge present = g.edge(0);
  const std::vector<GraphEvent> downup = {GraphEvent::edge_down(present.u, present.v),
                                          GraphEvent::edge_up(present.u, present.v)};
  q.submit(downup);
  EXPECT_EQ(q.pending(), 0u);

  // Node liveness annihilates the same way (all nodes start up).
  const std::vector<GraphEvent> node_cycle = {GraphEvent::node_down(2), GraphEvent::node_up(2)};
  q.submit(node_cycle);
  EXPECT_EQ(q.pending(), 0u);

  // A pure no-op (re-upping a present edge) never enters the queue.
  const std::vector<GraphEvent> noop = {GraphEvent::edge_up(present.u, present.v)};
  const auto d2 = q.submit(noop);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(d2.coalesced, 1u);
}

TEST(ServeCoalesce, DuplicateSuppression) {
  const Graph g = equivalence_family(0, 3);
  CoalescingQueue q(std::make_shared<const Graph>(g));
  const Edge present = g.edge(0);
  const std::vector<GraphEvent> dupes = {GraphEvent::edge_down(present.u, present.v),
                                         GraphEvent::edge_down(present.u, present.v),
                                         GraphEvent::edge_down(present.u, present.v)};
  const auto delta = q.submit(dupes);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(delta.coalesced, 2u);
  EXPECT_EQ(delta.net_growth, 1);

  const auto batch = q.take_batch(100);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], GraphEvent::edge_down(present.u, present.v));
  EXPECT_TRUE(q.empty());

  // After committing the down, another down is a no-op; an up is pending.
  q.submit(std::vector<GraphEvent>{GraphEvent::edge_down(present.u, present.v)});
  EXPECT_EQ(q.pending(), 0u);
  q.submit(std::vector<GraphEvent>{GraphEvent::edge_up(present.u, present.v)});
  EXPECT_EQ(q.pending(), 1u);
}

TEST(ServeCoalesce, QueueReplayBitExactVsUncoalescedStream) {
  for (int family = 0; family < 3; ++family) {
    for (std::uint64_t seed : {5ull, 11ull}) {
      const Graph g = equivalence_family(family, seed);
      const auto initial = std::make_shared<const Graph>(g);

      DynamicGraph via_queue(g);
      DynamicGraph uncoalesced(g);
      CoalescingQueue q(initial);

      Rng rng(seed * 97 + family);
      std::size_t total_extracted = 0;
      for (int round = 0; round < 20; ++round) {
        const auto stream = random_stream(g, 40, seed * 1000 + round);
        q.submit(stream);
        uncoalesced.apply_all(stream);
        // Drain with varying batch ceilings, including partial drains that
        // leave work pending across rounds.
        const std::size_t take = 1 + rng.uniform(30);
        const auto batch = q.take_batch(take);
        total_extracted += batch.size();
        via_queue.apply_all(batch);
      }
      // Final full drain, then the two topologies must coincide exactly.
      while (!q.empty()) {
        via_queue.apply_all(q.take_batch(16));
      }
      EXPECT_EQ(snapshot_edges(via_queue), snapshot_edges(uncoalesced))
          << "family " << family << " seed " << seed;
      EXPECT_LT(total_extracted, 20u * 40u) << "coalescing never absorbed anything";
    }
  }
}

// --- ServeService ----------------------------------------------------------

ServiceConfig sync_config() {
  ServiceConfig cfg;
  cfg.worker_threads = 0;
  cfg.record_journal = true;
  return cfg;
}

TEST(ServeService, EpochsAreMonotoneAndJournalReplayIsBitExact) {
  const Graph g = churn_family(0, 2);
  SpannerService service(sync_config());
  const TenantId id = service.open_tenant(g, "th2?k=2");

  const ChurnTrace trace = random_edge_churn_trace(g, 12, 25, 0.15, 42);
  std::uint64_t last_epoch = service.snapshot(id)->epoch();
  EXPECT_EQ(last_epoch, 0u);
  for (const auto& batch : trace.batches) {
    ASSERT_EQ(service.submit(id, batch), Admission::kAccepted);
    service.flush(id);
    const auto snap = service.snapshot(id);
    EXPECT_GE(snap->epoch(), last_epoch);
    last_epoch = snap->epoch();
  }

  // Replay the journal through a fresh single-threaded session: the final
  // spanner must be bit-exact and the final topology identical.
  const auto journal = service.journal(id);
  EXPECT_EQ(journal.size(), last_epoch);
  auto replay = api::open_incremental_session(g, api::parse_spanner_spec("th2?k=2"));
  for (const auto& batch : journal) replay->apply_batch(batch);

  const auto snap = service.snapshot(id);
  EXPECT_EQ(edge_list_of(snap->graph()), edge_list_of(replay->graph()));
  EXPECT_EQ(snap->spanner().bits(), replay->spanner().bits());
  EXPECT_EQ(snap->num_spanner_edges(), replay->spanner().size());

  const TenantStats stats = service.tenant_stats(id);
  EXPECT_EQ(stats.epoch, last_epoch);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.events_coalesced, 0u);
  EXPECT_EQ(stats.events_accepted, stats.events_coalesced + stats.events_applied);
}

TEST(ServeService, MprTenantEpochsMatchScratchBuilds) {
  // The OLSR MPR union is a TreeRule like the theorem constructions, so it
  // is served too: every published epoch equals a from-scratch build.
  const Graph g = churn_family(2, 4);
  SpannerService service(sync_config());
  const TenantId id = service.open_tenant(g, "mpr");
  const ChurnTrace trace = random_edge_churn_trace(g, 6, 10, 0.1, 43);
  for (const auto& batch : trace.batches) {
    ASSERT_EQ(service.submit(id, batch), Admission::kAccepted);
    service.flush(id);
    const auto snap = service.snapshot(id);
    EXPECT_EQ(snap->spanner().bits(), api::build_spanner(snap->graph(), "mpr").edges.bits())
        << "epoch " << snap->epoch();
  }
  EXPECT_GT(service.snapshot(id)->epoch(), 0u);
}

TEST(ServeService, OldEpochSnapshotsSurviveLaterBatchesAndEviction) {
  const Graph g = churn_family(1, 3);
  SpannerService service(sync_config());
  const TenantId id = service.open_tenant(g, "th1?eps=0.5");

  const auto epoch0 = service.snapshot(id);
  const std::vector<Edge> edges0 = edge_list_of(epoch0->graph());
  const std::size_t spanner0 = epoch0->num_spanner_edges();

  // Advance many epochs; the old snapshot's CSR must stay alive and
  // queryable (the DynamicGraph re-materializes a fresh Graph per version,
  // so this pins the shared-ownership chain end to end).
  const ChurnTrace trace = random_edge_churn_trace(g, 10, 30, 0.1, 7);
  for (const auto& batch : trace.batches) {
    ASSERT_EQ(service.submit(id, batch), Admission::kAccepted);
    service.flush(id);
  }
  ASSERT_GT(service.snapshot(id)->epoch(), 0u);

  EXPECT_EQ(epoch0->epoch(), 0u);
  EXPECT_EQ(edge_list_of(epoch0->graph()), edges0);
  EXPECT_EQ(epoch0->num_spanner_edges(), spanner0);
  EXPECT_GE(epoch0->sampled_stretch(10, 1), 1.0);
  const SpannerStats stats0 = epoch0->stats();
  EXPECT_EQ(stats0.spanner_edges, spanner0);

  // Eviction frees the tenant but not snapshots readers still hold.
  const auto last = service.snapshot(id);
  service.close_tenant(id);
  EXPECT_FALSE(service.has_tenant(id));
  EXPECT_THROW((void)service.snapshot(id), ServiceError);
  EXPECT_EQ(edge_list_of(epoch0->graph()), edges0);
  EXPECT_GT(last->graph().num_nodes(), 0u);
}

TEST(ServeService, AdmissionControlIsDeterministic) {
  const Graph g = churn_family(2, 5);
  ServiceConfig cfg = sync_config();
  cfg.tenant_queue_budget = 50;
  cfg.global_queue_budget = 80;

  // Two identical runs must agree on every verdict and every counter.
  std::vector<Admission> verdicts[2];
  TenantStats final_stats[2];
  for (int run = 0; run < 2; ++run) {
    SpannerService service(cfg);
    const TenantId a = service.open_tenant(g, "th2?k=1");
    const TenantId b = service.open_tenant(g, "th2?k=1");
    Rng rng(99);
    for (int i = 0; i < 30; ++i) {
      const auto stream = random_stream(g, 20, 1000 + i);
      verdicts[run].push_back(service.submit(a, stream));
      verdicts[run].push_back(service.submit(b, stream));
      if (i % 7 == 6) service.flush(a);  // b's queue keeps growing
    }
    final_stats[run] = service.tenant_stats(b);
    service.drain();
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(final_stats[0].rejected_retry_after, final_stats[1].rejected_retry_after);
  EXPECT_EQ(final_stats[0].rejected_overloaded, final_stats[1].rejected_overloaded);
  EXPECT_EQ(final_stats[0].events_accepted, final_stats[1].events_accepted);

  // The workload was sized to actually exercise both rejection paths.
  const std::uint64_t retries = final_stats[0].rejected_retry_after;
  const std::uint64_t overloads = final_stats[0].rejected_overloaded;
  EXPECT_GT(retries + overloads, 0u);
  const bool any_rejected =
      std::count(verdicts[0].begin(), verdicts[0].end(), Admission::kAccepted) <
      static_cast<long>(verdicts[0].size());
  EXPECT_TRUE(any_rejected);
}

TEST(ServeService, RejectedBatchesChangeNothing) {
  const Graph g = equivalence_family(0, 1);
  ServiceConfig cfg = sync_config();
  cfg.tenant_queue_budget = 5;
  SpannerService service(cfg);
  const TenantId id = service.open_tenant(g, "th2?k=2");

  // Over budget in one go: rejected, queue untouched.
  const auto big = random_stream(g, 200, 8);
  EXPECT_EQ(service.submit(id, big), Admission::kRetryAfter);
  EXPECT_EQ(service.tenant_stats(id).queue_depth, 0u);
  EXPECT_EQ(service.tenant_stats(id).rejected_retry_after, 1u);
  service.flush(id);
  EXPECT_EQ(service.snapshot(id)->epoch(), 0u);  // nothing was accepted
}

TEST(ServeService, TenantCapacityAndUnknownIds) {
  const Graph g = equivalence_family(1, 2);
  ServiceConfig cfg = sync_config();
  cfg.max_tenants = 2;
  SpannerService service(cfg);
  const TenantId a = service.open_tenant(g, "th2?k=1");
  (void)service.open_tenant(g, "th2?k=2");
  EXPECT_THROW((void)service.open_tenant(g, "th2?k=1"), ServiceError);
  EXPECT_THROW((void)service.submit(kInvalidTenant, {}), ServiceError);
  EXPECT_THROW(service.close_tenant(kInvalidTenant), ServiceError);
  EXPECT_THROW((void)service.open_tenant(g, "full"), api::SpecError);  // no incremental support

  service.close_tenant(a);
  const TenantId c = service.open_tenant(g, "th2?k=1");  // slot freed
  EXPECT_NE(c, a);
  EXPECT_EQ(service.stats().tenants_open, 2u);
  EXPECT_EQ(service.stats().tenants_closed, 1u);
}

// --- ServeConcurrency ------------------------------------------------------

TEST(ServeConcurrency, ReadersObserveMonotoneEpochsDuringRebuilds) {
  ServiceConfig cfg;
  cfg.worker_threads = 3;
  cfg.record_journal = true;
  cfg.max_batch_events = 64;
  SpannerService service(cfg);

  const int kTenants = 3;
  std::vector<Graph> graphs;
  std::vector<TenantId> ids;
  std::vector<std::string> specs = {"th2?k=2", "th1?eps=0.5", "th2?k=1"};
  for (int t = 0; t < kTenants; ++t) {
    graphs.push_back(churn_family(t, 17 + t));
    ids.push_back(service.open_tenant(graphs.back(), specs[t]));
  }

  // >= 4 readers hammer queries against all tenants while the writer below
  // pushes churn through the worker pool.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::uint64_t> last_epoch(kTenants, 0);
      Rng rng(1000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const int t = static_cast<int>(rng.uniform(kTenants));
        const auto snap = service.snapshot(ids[t]);
        // Monotone epochs per reader per tenant.
        ASSERT_GE(snap->epoch(), last_epoch[t]);
        last_epoch[t] = snap->epoch();
        // Internally consistent: the spanner bitset is sized to this
        // epoch's graph, and every query answers without synchronization.
        const NodeId n = snap->graph().num_nodes();
        const NodeId u = static_cast<NodeId>(rng.uniform(n));
        const NodeId v = static_cast<NodeId>(rng.uniform(n));
        (void)snap->contains(u, v);
        ASSERT_EQ(snap->spanner().bits().size(), snap->graph().num_edges());
        ASSERT_LE(snap->num_spanner_edges(), snap->graph().num_edges());
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: interleaved multi-tenant churn through the admission path.
  std::vector<ChurnTrace> traces;
  for (int t = 0; t < kTenants; ++t) {
    traces.push_back(random_edge_churn_trace(graphs[t], 10, 40, 0.1, 500 + t));
  }
  for (std::size_t b = 0; b < 10; ++b) {
    for (int t = 0; t < kTenants; ++t) {
      // Retry until admitted: budgets are generous, so this terminates as
      // soon as the workers drain the backlog.
      while (service.submit(ids[t], traces[t].batches[b]) != Admission::kAccepted) {
        std::this_thread::yield();
      }
    }
  }
  service.drain();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(queries.load(), 0u);

  // Final state bit-exact vs single-threaded replay of each journal.
  for (int t = 0; t < kTenants; ++t) {
    const auto journal = service.journal(ids[t]);
    auto replay = api::open_incremental_session(graphs[t], api::parse_spanner_spec(specs[t]));
    for (const auto& batch : journal) replay->apply_batch(batch);
    const auto snap = service.snapshot(ids[t]);
    EXPECT_EQ(snap->epoch(), journal.size());
    EXPECT_EQ(edge_list_of(snap->graph()), edge_list_of(replay->graph())) << "tenant " << t;
    EXPECT_EQ(snap->spanner().bits(), replay->spanner().bits()) << "tenant " << t;
  }
}

TEST(ServeConcurrency, ConcurrentSubmittersAndCloseAreSafe) {
  ServiceConfig cfg;
  cfg.worker_threads = 2;
  SpannerService service(cfg);
  const Graph g = churn_family(0, 23);
  const TenantId keep = service.open_tenant(g, "th2?k=1");
  const TenantId evict = service.open_tenant(g, "th2?k=1");

  std::vector<std::thread> writers;
  std::atomic<std::uint64_t> closed_errors{0};
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(3000 + w);
      for (int i = 0; i < 40; ++i) {
        const auto stream = random_stream(g, 10, 4000 + w * 100 + i);
        (void)service.submit(keep, stream);
        try {
          (void)service.submit(evict, stream);
        } catch (const ServiceError&) {
          closed_errors.fetch_add(1, std::memory_order_relaxed);  // evicted mid-run
        }
      }
    });
  }
  service.close_tenant(evict);
  for (auto& w : writers) w.join();
  service.drain();
  EXPECT_TRUE(service.has_tenant(keep));
  EXPECT_FALSE(service.has_tenant(evict));
  EXPECT_GT(service.snapshot(keep)->graph().num_nodes(), 0u);
}

}  // namespace
}  // namespace remspan::serve
