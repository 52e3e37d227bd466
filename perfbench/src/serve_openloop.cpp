// serve-openloop: a SpannerService under open-loop churn with reads.
//
// Why: on small tenants the per-epoch fixed costs dominate (admission,
// coalescing, the DynamicGraph merge, the full EdgeSet copy per publish),
// queueing appears at the heavy rate, and the large-n locality of core is
// bypassed. Reads beside the writes expose a publish-side change that makes
// lookups slower.
//
// 16 tenants, each its own UDG with ~5000 nodes and a spec from the mix
// th1 / th2 k=1 / th2 k=2 / th3; 3 service workers plus this one driver
// thread. Churn is edge-only random_edge_churn_trace batches of 8 events.
//   light     open loop at 200 batches/s, one tenant per tick, round robin:
//             latency is the service time;
//   heavy     the same at 600 batches/s, where queues start to form (at
//             1000 batches/s the reference machine queues for ~15 ms);
//   saturate  a burst to every tenant, then drain().
// One cycle runs a light segment, a heavy segment and a saturate round;
// cycles repeat until the measuring time is used.
// Every open-loop tick also issues one read: snapshot() plus 64
// SpannerSnapshot::contains probes. The rates are constants, not derived
// from a measured saturation, so two commits are offered the same load.
//
// Visibility: an accepted batch is visible at the first poll at which its
// tenant's snapshot graph holds the desired state (coalesce_events) of each
// of its cells; cells a later accepted batch of the tenant also writes are
// left out. Latency is timed from the batch's due time, not its send time.
//
// End-to-end: p50_ms = light-rate submit-to-visible latency,
// throughput_per_s = saturated events per second.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>

#include "api/observability.hpp"
#include "api/registry.hpp"
#include "common.hpp"
#include "dynamic/churn_trace.hpp"
#include "obs/obs.hpp"
#include "serve/coalesce.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using remspan::serve::EventKey;

constexpr const char* kSpecs[] = {"th1?eps=0.5", "th2?k=1", "th2?k=2", "th3?k=2"};
constexpr const char* kSpecLabels[] = {"th1", "th2k1", "th2k2", "th3"};
constexpr std::size_t kTenants = 16;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kEventsPerBatch = 8;
constexpr std::size_t kProbesPerRead = 64;
// Offered load in batches per second (8 events each), fixed so that every
// commit sees the same schedule.
constexpr double kLightRate = 200.0;
constexpr double kHeavyRate = 600.0;
constexpr double kPollIntervalUs = 200.0;
constexpr double kSleepSlackUs = 60.0;
constexpr double kDepthSampleUs = 1000.0;
constexpr const char* kObsCounters[] = {"bfs.nodes_expanded",   "domtree.heap_pops",
                                        "domtree.cover_touches", "union.words_ord",
                                        "union.cas_retries",    "inc.expand_old_nodes",
                                        "inc.expand_new_nodes", "inc.refcount_churn"};

double now_us() { return remspan::obs::process_micros(); }

struct PendingBatch {
  std::uint64_t seq = 0;
  double due_us = 0.0;
  bool traced = false;  ///< submitted by a recorded tick
  std::vector<std::pair<EventKey, bool>> cells;  ///< desired final state per cell
};

struct Tenant {
  remspan::serve::TenantId id = remspan::serve::kInvalidTenant;
  const char* spec = "";
  std::size_t spec_index = 0;
  Graph graph;  ///< initial topology as loaded from text
  remspan::ChurnTrace trace;
  std::size_t cursor = 0;  ///< next trace batch to submit
  std::vector<Edge> probes;
  std::deque<PendingBatch> pending;
  std::map<EventKey, std::uint64_t> last_writer;
  std::uint64_t seen_epoch = ~std::uint64_t{0};
  std::vector<const std::vector<remspan::GraphEvent>*> accepted;  ///< in submit order
};

struct OpenLoopResult {
  Samples visible_ms;
  Samples read_us;
  std::vector<double> submit_us;
  std::vector<double> snapshot_us;
  double late_ms_max = 0.0;
  std::size_t max_queue_depth = 0;
  std::uint64_t rejected = 0;
  std::uint64_t never_visible = 0;
  std::uint64_t ticks = 0;  ///< over all segments: drives tenant rotation and tracing
  // Service counters summed over the segments.
  double epochs = 0.0, applied = 0.0, coalesced = 0.0, accepted = 0.0;
};

class Driver {
 public:
  Driver(Context& ctx, remspan::serve::SpannerService& service, std::vector<Tenant>& tenants)
      : ctx_(ctx), service_(service), tenants_(tenants) {}

  /// One open-loop segment of `seconds` at `rate`, added into `r`, then
  /// settled so the next segment starts from empty queues.
  void open_loop(const char* phase, double rate, double seconds, OpenLoopResult& r,
                 bool corrupt_first) {
    const remspan::serve::ServiceStats before = service_.stats();
    const double interval = 1e6 / rate;
    const double start = now_us();
    const double end = start + seconds * 1e6;
    double last_poll = 0.0;
    for (std::uint64_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k) * interval;
      if (due >= end) break;
      for (;;) {
        const double now = now_us();
        if (now >= due) {
          issue_tick(phase, r.ticks++, due, now, r, corrupt_first && k == 1);
          break;
        }
        if (now - last_poll >= kPollIntervalUs) {
          poll(r, now, false);
          last_poll = now;
          continue;
        }
        // Sleep to the next tick or poll, leaving the cores to the service;
        // near a deadline only yield, since a sleep overshoots by ~50 us.
        const double wait = std::min(due, last_poll + kPollIntervalUs) - now;
        if (wait > 2 * kSleepSlackUs) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(wait - kSleepSlackUs)));
        } else {
          std::this_thread::yield();
        }
      }
    }
    settle(r);
    const remspan::serve::ServiceStats after = service_.stats();
    r.epochs += static_cast<double>(after.epochs_published - before.epochs_published);
    r.applied += static_cast<double>(after.events_applied - before.events_applied);
    r.coalesced += static_cast<double>(after.events_coalesced - before.events_coalesced);
    r.accepted += static_cast<double>(after.events_accepted - before.events_accepted);
  }

  /// The engine batch behind each new epoch a poll saw (polls can skip
  /// epochs, so this samples the open-loop epochs).
  [[nodiscard]] const BatchStats& epochs() const noexcept { return epochs_; }

 private:
  void issue_tick(const char* phase, std::uint64_t tick, double due, double now, OpenLoopResult& r,
                  bool corrupt) {
    Tracer& tr = ctx_.tracer;
    const bool traced = tr.records_op(tick);
    tr.begin_op(phase, traced);
    auto ts = tr.span("bench", "tick");
    r.late_ms_max = std::max(r.late_ms_max, (now - due) * 1e-3);
    Tenant& t = tenants_[tick % tenants_.size()];
    REMSPAN_CHECK(t.cursor < t.trace.batches.size());
    const std::vector<remspan::GraphEvent>& batch = t.trace.batches[t.cursor++];

    auto ss = tr.span("serve", "serve.submit");
    const remspan::serve::Admission verdict = service_.submit(t.id, batch);
    r.submit_us.push_back(ss.stop() * 1e6);
    ++ctx_.outcome.attempted;
    if (verdict == remspan::serve::Admission::kAccepted) {
      PendingBatch p;
      p.seq = next_seq_++;
      p.due_us = due;
      p.traced = traced;
      for (const remspan::GraphEvent& e : remspan::serve::coalesce_events(batch)) {
        p.cells.emplace_back(EventKey::of(e), remspan::serve::event_state(e.kind));
        t.last_writer[p.cells.back().first] = p.seq;
      }
      // A desired state no snapshot can reach: the batch must never count
      // as visible.
      if (corrupt) p.cells.front().second = !p.cells.front().second;
      t.pending.push_back(std::move(p));
      t.accepted.push_back(&batch);
      pending_total_ += 1;
    } else {
      ++r.rejected;
      ++ctx_.outcome.failed;
    }

    // One read of another tenant: snapshot() plus 64 membership probes.
    Tenant& rt = tenants_[(tick * 7 + 3) % tenants_.size()];
    auto rs = tr.span("serve", "serve.read");
    const double r0 = now_us();
    const std::shared_ptr<const remspan::serve::SpannerSnapshot> snap = service_.snapshot(rt.id);
    const double r1 = now_us();
    for (const Edge& e : rt.probes) (void)snap->contains(e.u, e.v);
    const double r2 = now_us();
    rs.stop();
    r.snapshot_us.push_back(r1 - r0);
    r.read_us.add(traced, r2 - r0);
    ++ctx_.outcome.attempted;
  }

  /// Checks every tenant whose epoch moved (all tenants when `force`).
  void poll(OpenLoopResult& r, double now, bool force) {
    if (pending_total_ == 0) return;
    for (Tenant& t : tenants_) {
      if (t.pending.empty()) continue;
      const auto snap = service_.snapshot(t.id);
      if (snap->epoch() != t.seen_epoch) {
        const remspan::ChurnBatchStats& last = snap->info().last_batch;
        epochs_.add(last, last.seconds);
      } else if (!force) {
        continue;
      }
      t.seen_epoch = snap->epoch();
      const Graph& g = snap->graph();
      for (auto it = t.pending.begin(); it != t.pending.end();) {
        bool visible = true;
        for (const auto& [key, up] : it->cells) {
          if (t.last_writer[key] != it->seq) continue;  // a later batch owns this cell
          if (g.has_edge(key.u, key.v) != up) {
            visible = false;
            break;
          }
        }
        if (visible) {
          r.visible_ms.add(it->traced, (now - it->due_us) * 1e-3);
          it = t.pending.erase(it);
          --pending_total_;
        } else {
          ++it;
        }
      }
    }
    if (now - last_depth_sample_ >= kDepthSampleUs) {
      r.max_queue_depth = std::max(r.max_queue_depth, service_.stats().queue_depth);
      last_depth_sample_ = now;
    }
  }

  /// After a phase: keep polling until every accepted batch is visible or
  /// the queues are empty; then drain() and poll once more. Whatever is
  /// still pending then was never made visible.
  void settle(OpenLoopResult& r) {
    const double give_up = now_us() + 30e6;
    while (pending_total_ > 0 && service_.stats().queue_depth > 0 && now_us() < give_up) {
      poll(r, now_us(), false);
      std::this_thread::yield();
    }
    service_.drain();
    poll(r, now_us(), true);
    for (Tenant& t : tenants_) {
      r.never_visible += t.pending.size();
      ctx_.outcome.failed += t.pending.size();
      t.pending.clear();
    }
    pending_total_ = 0;
  }

  Context& ctx_;
  remspan::serve::SpannerService& service_;
  std::vector<Tenant>& tenants_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_total_ = 0;
  double last_depth_sample_ = 0.0;
  BatchStats epochs_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report_phase(Metrics& m, const std::string& phase, const OpenLoopResult& r) {
  const std::string p = "serve." + phase;
  m.set(p + ".epochs_published", r.epochs);
  m.set(p + ".events_per_epoch", ratio(r.applied, r.epochs));
  m.set(p + ".coalesced_ratio", ratio(r.coalesced, r.accepted));
  m.set(p + ".max_queue_depth", static_cast<double>(r.max_queue_depth));
  m.set(p + ".rejected", static_cast<double>(r.rejected));
  m.set(p + ".generator_late_ms_max", r.late_ms_max);
}

}  // namespace

void run_serve_openloop(Context& ctx) {
  const RunConfig& cfg = ctx.cfg;
  Tracer& tr = ctx.tracer;
  Metrics& m = ctx.metrics;
  Outcome& out = ctx.outcome;
  const double mean_nodes = cfg.smoke ? 400.0 : 5000.0;
  const double degree = 10.0;
  // One cycle: a light segment, a heavy segment, one saturate round. The
  // cycles repeat until the measuring time is used, so every phase samples
  // the whole run rather than one stretch of it.
  const double light_seg_s = cfg.smoke ? 0.2 : 1.0;
  const double heavy_seg_s = cfg.smoke ? 0.4 : 2.0;
  const std::size_t saturate_batches = cfg.smoke ? 10 : 150;  // per tenant per round
  const std::size_t max_cycles =
      static_cast<std::size_t>(std::ceil(cfg.seconds / (light_seg_s + heavy_seg_s))) + 2;
  const std::size_t batches_per_tenant =
      max_cycles * (static_cast<std::size_t>(std::ceil(
                        (kLightRate * light_seg_s + kHeavyRate * heavy_seg_s) / kTenants)) +
                    1 + saturate_batches);
  remspan::serve::ServiceConfig scfg;
  scfg.worker_threads = kWorkers;
  scfg.max_tenants = kTenants;
  scfg.tenant_queue_budget = std::size_t{1} << 14;
  scfg.global_queue_budget = std::size_t{1} << 18;
  ctx.meta["serve.tenants"] = std::to_string(kTenants);
  ctx.meta["serve.worker_threads"] = std::to_string(kWorkers);
  ctx.meta["serve.driver_threads"] = "1";
  ctx.meta["serve.mean_nodes"] = std::to_string(mean_nodes);
  ctx.meta["serve.light_rate_batches_per_s"] = std::to_string(kLightRate);
  ctx.meta["serve.heavy_rate_batches_per_s"] = std::to_string(kHeavyRate);

  GeomTimes geom;
  std::vector<double> setup_s, load_s;
  std::vector<Tenant> tenants;
  std::unique_ptr<remspan::serve::SpannerService> service;
  double text_bytes = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    tenants.assign(kTenants, Tenant{});
    text_bytes = 0.0;
    tr.begin_op("setup");
    auto s = tr.span("bench", "setup");
    {
      auto c = tr.span("serve", "serve.SpannerService");
      service = std::make_unique<remspan::serve::SpannerService>(scfg);
    }
    for (std::size_t i = 0; i < kTenants; ++i) {
      Tenant& t = tenants[i];
      t.spec_index = i % std::size(kSpecs);
      t.spec = kSpecs[t.spec_index];
      const std::uint64_t seed = cfg.seed * 1000 + i;
      const remspan::GeometricGraph gg = make_udg(tr, geom, seed, mean_nodes, degree);
      const std::string text = to_edge_list(tr, gg.graph);
      text_bytes += static_cast<double>(text.size());
      double t_load = 0.0;
      t.graph = load_edge_list(tr, text, &t_load);
      load_s.push_back(t_load);
      {
        auto g = tr.span("dynamic", "dynamic.random_edge_churn_trace");
        t.trace = remspan::random_edge_churn_trace(t.graph, batches_per_tenant, kEventsPerBatch,
                                                   0.0, seed * 31 + 5);
      }
      remspan::Rng rng(seed * 7919);
      const auto edges = t.graph.edges();
      for (std::size_t p = 0; p < kProbesPerRead; ++p) {
        t.probes.push_back(edges[rng.uniform(edges.size())]);
      }
      auto o = tr.span("serve", "serve.open_tenant");
      t.id = service->open_tenant(t.graph, t.spec);
    }
    setup_s.push_back(s.stop());
  }
  m.set("setup_s", median(setup_s));
  ctx.meta["serve.pool_threads"] = std::to_string(remspan::ThreadPool::global().size());

  if (cfg.trace) remspan::api::enable_observability(true, true);
  const remspan::obs::Snapshot obs_before = obs_counters();
  const std::uint64_t epochs_before = service->stats().epochs_published;
  Driver driver(ctx, *service, tenants);
  OpenLoopResult light, heavy;
  Samples sat_events, sat_seconds;
  const double start = now_us();
  std::size_t cycles = 0;
  while (cycles < max_cycles && (cycles < 2 || now_us() - start < cfg.seconds * 1e6)) {
    driver.open_loop("light", kLightRate, light_seg_s, light, false);
    driver.open_loop("heavy", kHeavyRate, heavy_seg_s, heavy,
                     cycles == 0 && cfg.corrupt == "serve-visible");
    // Saturate: submit a burst to every tenant, then drain().
    const bool traced = tr.records_op(cycles);
    tr.begin_op("saturate", traced);
    auto rs = tr.span("bench", "saturate round");
    std::size_t events = 0;
    {
      auto ss = tr.span("serve", "serve.submit burst");
      for (std::size_t k = 0; k < saturate_batches; ++k) {
        for (Tenant& t : tenants) {
          const auto& batch = t.trace.batches[t.cursor++];
          const remspan::serve::Admission verdict = service->submit(t.id, batch);
          ++out.attempted;
          if (verdict == remspan::serve::Admission::kAccepted) {
            t.accepted.push_back(&batch);
            events += batch.size();
          } else {
            ++out.failed;
          }
        }
      }
    }
    {
      auto ds = tr.span("serve", "serve.drain");
      service->drain();
    }
    sat_events.add(traced, static_cast<double>(events));
    sat_seconds.add(traced, rs.stop());
    ++cycles;
  }
  const remspan::obs::Snapshot obs_after = obs_counters();
  const double timed_epochs = static_cast<double>(service->stats().epochs_published) -
                              static_cast<double>(epochs_before);
  if (cfg.trace) remspan::api::disable_observability();
  ctx.meta["serve.cycles"] = std::to_string(cycles);
  for (const auto& [name, r] : {std::pair{"light", &light}, std::pair{"heavy", &heavy}}) {
    const std::vector<double> v = r->visible_ms.all();
    std::cout << "serve-openloop: " << name << " " << v.size() << " batches visible p50 "
              << median(v) << " ms p95 " << percentile(v, 0.95) << " ms p99 "
              << percentile(v, 0.99) << " ms, generator late max " << r->late_ms_max
              << " ms, max queue depth " << r->max_queue_depth << "\n";
  }
  // Checks.
  tr.begin_op("check");
  out.check("serve.visible", light.never_visible + heavy.never_visible == 0,
            std::to_string(light.never_visible + heavy.never_visible) +
                " accepted batches never became visible");
  std::map<std::string, std::vector<double>> build_s;
  std::map<std::string, double> spanner_edges, sum_tree_edges;
  bool final_equal = true, final_state = true;
  for (Tenant& t : tenants) {
    const auto snap = service->snapshot(t.id);
    // Expected topology: the initial edges toggled by every accepted batch.
    std::map<Edge, bool> state;
    for (const Edge& e : t.graph.edges()) state[e] = true;
    for (const auto* batch : t.accepted) {
      for (const remspan::GraphEvent& e : *batch) {
        state[Edge{e.u, e.v}] = remspan::serve::event_state(e.kind);
      }
    }
    std::size_t live = 0;
    for (const auto& [e, up] : state) {
      live += up ? 1 : 0;
      if (snap->graph().has_edge(e.u, e.v) != up) final_state = false;
    }
    if (live != snap->graph().num_edges()) final_state = false;

    auto bs = tr.span("core", std::string("core.build_spanner ") + t.spec);
    const remspan::api::SpannerResult scratch =
        remspan::api::build_spanner(snap->graph(), t.spec);
    const std::string label = kSpecLabels[t.spec_index];
    build_s[label].push_back(bs.stop());
    spanner_edges[label] += static_cast<double>(scratch.edges.size());
    sum_tree_edges[label] += static_cast<double>(scratch.info.sum_tree_edges);
    EdgeSet served = snap->spanner();
    if (cfg.corrupt == "serve-final" && &t == &tenants.front()) {
      const auto victim = static_cast<remspan::EdgeId>(snap->graph().num_edges() / 2);
      if (served.contains(victim)) {
        served.remove(victim);
      } else {
        served.insert(victim);
      }
    }
    final_equal = final_equal && served == scratch.edges;
    out.attempted += 2;
  }
  out.check("serve.final_state", final_state, "snapshot graphs == initial graph + accepted churn");
  out.check("serve.final_equal", final_equal, "every snapshot spanner == scratch build");

  // End-to-end (untraced ticks only). The latency of record is the light
  // rate's: near the queueing knee the heavy rate amplifies the machine's
  // speed swings (run-to-run spread 0.33 vs 0.06 on the reference machine).
  m.set("p50_ms", median(light.visible_ms.untraced()));
  m.set("e2e.p95_ms", percentile(light.visible_ms.all(), 0.95));
  m.set("throughput_per_s", rate(sat_events.untraced(), sat_seconds.untraced()));
  ctx.meta["serve.light.visible_samples"] = std::to_string(light.visible_ms.untraced().size());
  ctx.meta["serve.light.generator_late_ms_max"] = std::to_string(light.late_ms_max);
  ctx.meta["serve.heavy.generator_late_ms_max"] = std::to_string(heavy.late_ms_max);

  // Per-layer.
  m.set("geom.points_s", median(geom.points));
  m.set("geom.unit_ball_graph_s", median(geom.unit_ball_graph));
  m.set("geom.largest_component_s", median(geom.largest_component));
  double nodes = 0.0, edges = 0.0;
  for (const Tenant& t : tenants) {
    nodes += t.graph.num_nodes();
    edges += static_cast<double>(t.graph.num_edges());
  }
  m.set("geom.nodes", nodes);
  m.set("geom.edges", edges);
  m.set("graph.read_edge_list_s", median(load_s));
  m.set("graph.edge_list_bytes", text_bytes);
  for (const auto& [label, times] : build_s) {
    m.set("core." + label + ".build_s", median(times));
    m.set("core." + label + ".spanner_edges", spanner_edges[label]);
    m.set("core." + label + ".sum_tree_edges", sum_tree_edges[label]);
  }
  for (const char* c : kObsCounters) {
    m.set(c, ratio(counter_delta(obs_after, obs_before, c), timed_epochs));
  }
  std::vector<double> submit_us = light.submit_us, snapshot_us = light.snapshot_us;
  submit_us.insert(submit_us.end(), heavy.submit_us.begin(), heavy.submit_us.end());
  snapshot_us.insert(snapshot_us.end(), heavy.snapshot_us.begin(), heavy.snapshot_us.end());
  m.set("serve.submit_us_p50", median(submit_us));
  m.set("serve.snapshot_us_p50", median(snapshot_us));
  const std::vector<double> heavy_visible = heavy.visible_ms.all();
  m.set("serve.light.visible_p99_ms", percentile(light.visible_ms.all(), 0.99));
  m.set("serve.heavy.visible_p50_ms", median(heavy_visible));
  m.set("serve.heavy.visible_p99_ms", percentile(heavy_visible, 0.99));
  m.set("serve.heavy.read_p50_us", median(heavy.read_us.all()));
  report_phase(m, "light", light);
  report_phase(m, "heavy", heavy);
  driver.epochs().report(m, "small");
  if (cfg.trace) {
    m.set("trace.overhead.p50_ms",
          median(light.visible_ms.traced()) - median(light.visible_ms.untraced()));
    m.set("trace.overhead.throughput_per_s",
          rate(sat_events.traced(), sat_seconds.traced()) - m.get("throughput_per_s"));
  }
}

}  // namespace perfbench
