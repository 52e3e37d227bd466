#include "serve/snapshot.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "util/prelude.hpp"
#include "util/rng.hpp"

namespace remspan::serve {

namespace {

constexpr Dist kUnreached = std::numeric_limits<Dist>::max();

/// Plain BFS from `source` over the full graph.
void bfs_graph(const Graph& g, NodeId source, std::vector<Dist>& dist) {
  dist.assign(g.num_nodes(), kUnreached);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = static_cast<Dist>(dist[u] + 1);
        queue.push_back(v);
      }
    }
  }
}

/// BFS computing d_{H_u}(source, .): source at 0, its G-neighbors at 1,
/// then spanner edges only (the stretch-oracle identity — an H_u path
/// leaves the source exactly once, through some G-neighbor).
void bfs_augmented(const Graph& g, const EdgeSet& h, NodeId source, std::vector<Dist>& dist) {
  dist.assign(g.num_nodes(), kUnreached);
  std::deque<NodeId> queue;
  dist[source] = 0;
  for (const NodeId v : g.neighbors(source)) {
    if (dist[v] == kUnreached) {
      dist[v] = 1;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    h.for_each_neighbor(u, [&](NodeId v) {
      if (dist[v] == kUnreached) {
        dist[v] = static_cast<Dist>(dist[u] + 1);
        queue.push_back(v);
      }
    });
  }
}

}  // namespace

SpannerSnapshot::SpannerSnapshot(std::shared_ptr<const Graph> graph, DynamicBitset spanner_bits,
                                 std::size_t spanner_edges, SnapshotInfo info)
    : graph_(std::move(graph)),
      spanner_(*graph_, std::move(spanner_bits)),
      spanner_edges_(spanner_edges),
      info_(info) {
  REMSPAN_CHECK(graph_ != nullptr);
}

bool SpannerSnapshot::contains(NodeId a, NodeId b) const noexcept {
  const NodeId n = graph_->num_nodes();
  if (a >= n || b >= n || a == b) return false;
  return spanner_.contains(a, b);
}

double SpannerSnapshot::sampled_stretch(std::size_t pairs, std::uint64_t seed) const {
  const NodeId n = graph_->num_nodes();
  if (n < 2 || pairs == 0) return 1.0;
  Rng rng(seed);
  double worst = 1.0;
  std::vector<Dist> dg;
  std::vector<Dist> dhu;
  for (std::size_t i = 0; i < pairs; ++i) {
    const NodeId u = static_cast<NodeId>(rng.uniform(n));
    const NodeId v = static_cast<NodeId>(rng.uniform(n));
    if (u == v) continue;
    bfs_graph(*graph_, u, dg);
    if (dg[v] == kUnreached || dg[v] < 2) continue;  // adjacent/disconnected: ratio 1 by definition
    bfs_augmented(*graph_, spanner_, u, dhu);
    if (dhu[v] == kUnreached) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, static_cast<double>(dhu[v]) / static_cast<double>(dg[v]));
  }
  return worst;
}

}  // namespace remspan::serve
