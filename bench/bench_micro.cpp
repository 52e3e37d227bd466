// E12 — microbenchmarks (google-benchmark): throughput of the primitives
// behind every experiment, for performance-regression tracking. A custom
// main mirrors every measurement into BENCH_micro.json (seconds per
// iteration, keyed by benchmark name) so the regression trajectory is
// machine-readable like the table benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "obs/obs.hpp"
#include "util/json_report.hpp"

#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace remspan {
namespace {

const Graph& shared_udg() {
  static const Graph g = [] {
    Rng rng(77);
    const auto gg = random_unit_disk_graph(7.0, 500, rng);
    return largest_component(gg.graph);
  }();
  return g;
}

void BM_BfsFull(benchmark::State& state) {
  const Graph& g = shared_udg();
  BoundedBfs bfs(g.num_nodes());
  NodeId src = 0;
  for (auto _ : state) {
    bfs.run(GraphView(g), src);
    src = (src + 1) % g.num_nodes();
    benchmark::DoNotOptimize(bfs.order().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BfsFull);

void BM_BfsTwoHop(benchmark::State& state) {
  const Graph& g = shared_udg();
  BoundedBfs bfs(g.num_nodes());
  NodeId src = 0;
  for (auto _ : state) {
    bfs.run(GraphView(g), src, 2);
    src = (src + 1) % g.num_nodes();
    benchmark::DoNotOptimize(bfs.order().size());
  }
}
BENCHMARK(BM_BfsTwoHop);

void BM_DomTreeGreedy(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto r = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.greedy(root, r, 1).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeGreedy)->Arg(2)->Arg(3)->Arg(5);

void BM_DomTreeGreedyK(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto k = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.greedy_k(root, k).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeGreedyK)->Arg(1)->Arg(2)->Arg(4);

void BM_DomTreeMis(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto r = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.mis(root, r).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeMis)->Arg(2)->Arg(3)->Arg(5);

void BM_DomTreeMisK(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto k = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.mis_k(root, k).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeMisK)->Arg(1)->Arg(2)->Arg(4);

void BM_SpannerBuildTh2(benchmark::State& state) {
  const Graph& g = shared_udg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_k_connecting_spanner(g, 1).size());
  }
}
BENCHMARK(BM_SpannerBuildTh2)->Unit(benchmark::kMillisecond);

void BM_SpannerBuildTh1(benchmark::State& state) {
  const Graph& g = shared_udg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_low_stretch_remote_spanner(g, 0.5).size());
  }
}
BENCHMARK(BM_SpannerBuildTh1)->Unit(benchmark::kMillisecond);

void BM_SpannerUnion(benchmark::State& state) {
  // Isolates the union step of the spanner builds: all per-root tree edge
  // lists are precomputed once, the loop measures only merging them into
  // one shared atomic bitset from every pool worker (word-batched relaxed
  // fetch_or) plus the final snapshot into a DynamicBitset.
  const Graph& g = shared_udg();
  static const std::vector<std::vector<EdgeId>> tree_edges = [] {
    const Graph& gg = shared_udg();
    DomTreeBuilder builder(gg);
    std::vector<std::vector<EdgeId>> all(gg.num_nodes());
    for (NodeId u = 0; u < gg.num_nodes(); ++u) {
      const RootedTree tree = builder.greedy(u, 3, 1);
      for (const NodeId v : tree.nodes()) {
        if (v != tree.root()) all[u].push_back(tree.parent_edge(v));
      }
    }
    return all;
  }();

  auto& pool = ThreadPool::global();
  std::vector<std::vector<EdgeId>> batches(pool.concurrency());
  for (auto _ : state) {
    AtomicBitset shared(g.num_edges());
    pool.parallel_for_workers(
        0, tree_edges.size(), [&](std::size_t root, std::size_t worker) {
          auto& ids = batches[worker];
          ids.assign(tree_edges[root].begin(), tree_edges[root].end());
          shared.or_batch(ids);
        });
    benchmark::DoNotOptimize(shared.snapshot().count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree_edges.size()));
}
BENCHMARK(BM_SpannerUnion);

void BM_OlsrMprNode(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.mpr(u).num_edges());
    u = (u + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_OlsrMprNode);

void BM_DisjointPathsOracle(benchmark::State& state) {
  const Graph& g = shared_udg();
  NodeId s = 0;
  for (auto _ : state) {
    const NodeId t = (s + g.num_nodes() / 2) % g.num_nodes();
    benchmark::DoNotOptimize(min_disjoint_paths(GraphView(g), s, t, 2).connectivity());
    s = (s + 1) % g.num_nodes();
  }
  state.SetLabel("d^2 via min-cost flow, n=" + std::to_string(g.num_nodes()));
}
BENCHMARK(BM_DisjointPathsOracle)->Unit(benchmark::kMillisecond);

void BM_ObsCounterHot(benchmark::State& state) {
  // Price of one counter bump with a registry installed — what the drained
  // per-call tallies pay per publish when a sink is live.
  obs::Registry registry;
  const obs::ScopedSinks sinks(&registry, nullptr);
  obs::Counter& counter = registry.counter("bench.hot");
  for (auto _ : state) {
    counter.add(1);
    benchmark::DoNotOptimize(&counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterHot);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // The disabled path the determinism contract pins: with no sinks
  // installed a PhaseSpan must cost the stopwatch read plus one predicted
  // branch per endpoint, nothing more. Gated by the committed baseline like
  // every other micro value.
  for (auto _ : state) {
    const obs::PhaseSpan span("bench.disabled", "bench");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanDisabled);

/// Console output as usual, plus seconds-per-iteration collected for the
/// JSON report. Benchmark names like "BM_DomTreeMis/3" become keys with the
/// '/' flattened to '_' and a "_seconds" suffix — the suffix is what makes
/// bench_diff apply its one-sided timing rule to every micro value, so the
/// committed BENCH_micro.json baseline gates the key SET hard (a benchmark
/// silently disappearing is a regression) while time drift only fails past
/// the generous --time-threshold CI passes.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.iterations == 0) continue;
      std::string key = run.benchmark_name();
      std::replace(key.begin(), key.end(), '/', '_');
      seconds_per_iteration.emplace_back(
          key + "_seconds", run.real_accumulated_time / static_cast<double>(run.iterations));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> seconds_per_iteration;
};

}  // namespace
}  // namespace remspan

int main(int argc, char** argv) {
  remspan::obs::PhaseSpan timer("bench.run", "bench");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  remspan::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  remspan::BenchReport report("micro");
  report.param("workload", std::string("shared UDG side=7 mean_n=500 seed=77"));
  for (const auto& [key, seconds] : reporter.seconds_per_iteration) {
    report.value(key, seconds);
  }
  report.set_wall_seconds(timer.seconds());
  report.write_file(report.default_filename());
  std::cout << "\nreport: " << report.default_filename() << "\n";
  return 0;
}
