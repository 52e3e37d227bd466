#include "core/remote_spanner.hpp"

#include <algorithm>
#include <atomic>
#include <source_location>
#include <vector>

#include "graph/locality_order.hpp"
#include "obs/obs.hpp"
#include "util/bitset.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

TreeRule TreeRule::r_beta(Dist r, Dist beta, TreeAlgorithm algo) {
  REMSPAN_CHECK(r >= 2);
  if (algo == TreeAlgorithm::kMis) REMSPAN_CHECK(beta == 1);  // Algorithm 2 is beta = 1
  return TreeRule{algo == TreeAlgorithm::kMis ? Kind::kMis : Kind::kGreedy, r, beta, 1};
}

TreeRule TreeRule::low_stretch(double eps, TreeAlgorithm algo) {
  return r_beta(domination_radius_for_eps(eps), 1, algo);
}

TreeRule TreeRule::k_connecting(Dist k) {
  REMSPAN_CHECK(k >= 1);
  return TreeRule{Kind::kGreedyK, 2, 0, k};
}

TreeRule TreeRule::two_connecting(Dist k) {
  REMSPAN_CHECK(k >= 1);
  return TreeRule{Kind::kMisK, 2, 1, k};
}

TreeRule TreeRule::mpr() { return TreeRule{Kind::kMpr, 2, 0, 1}; }

RootedTree TreeRule::build(DomTreeBuilder& builder, NodeId root) const {
  switch (kind) {
    case Kind::kGreedy:
      return builder.greedy(root, r, beta);
    case Kind::kMis:
      return builder.mis(root, r);
    case Kind::kGreedyK:
      return builder.greedy_k(root, k);
    case Kind::kMisK:
      return builder.mis_k(root, k);
    case Kind::kMpr:
      return builder.mpr(root);
  }
  detail::check_failed("unknown TreeRule::Kind", std::source_location::current());
}

Dist TreeRule::dirty_radius() const noexcept { return std::max<Dist>(1, r + beta - 1); }

const char* TreeRule::name() const noexcept {
  switch (kind) {
    case Kind::kGreedy:
      return "r-beta (greedy)";
    case Kind::kMis:
      return "r-beta (mis)";
    case Kind::kGreedyK:
      return "k-connecting (1,0)";
    case Kind::kMisK:
      return "k-connecting (2,1)";
    case Kind::kMpr:
      return "olsr-mpr";
  }
  return "?";
}

TreeUnionDriver::TreeUnionDriver(const Graph& g)
    : builders_(ThreadPool::global().concurrency()) {
  for (auto& b : builders_) b = std::make_unique<DomTreeBuilder>(g);
}

void TreeUnionDriver::rebind(const Graph& g) {
  for (auto& b : builders_) b->rebind(g);
}

void TreeUnionDriver::run(std::span<const NodeId> roots, const TreeRule& rule,
                          const TreeVisitor& visit) {
  ThreadPool::global().parallel_for_workers(
      0, roots.size(), [&](std::size_t i, std::size_t worker) {
        const NodeId root = roots[i];
        visit(root, rule.build(*builders_[worker], root), worker);
      });
}

/// Unions the tree edges into one shared bitset of atomic words — O(m)
/// bits total, independent of the worker count (per-worker EdgeSet
/// accumulators would cost O(workers · m), which is what blows memory
/// first on n >= 10^6 inputs).
///
/// Memory model: each worker merges one tree's edge bits into plain
/// (word, mask) pairs first, then publishes each touched word with a single
/// relaxed fetch_or. Relaxed is sufficient because a set bit carries no
/// payload other threads read through it; the final snapshot() happens
/// after the fork/join barrier of the driver's parallel loop, which orders
/// every write before the read.
EdgeSet union_of_trees(const Graph& g, std::span<const NodeId> roots,
                       const TreeRule& rule, SpannerBuildInfo* info) {
  obs::PhaseSpan span("core.union_of_trees");
  TreeUnionDriver driver(g);
  AtomicBitset shared(g.edge_id_bound());
  // Per-worker reusable edge-id buffer, sized by the largest tree seen.
  std::vector<std::vector<EdgeId>> edge_ids(driver.workers());

  std::atomic<std::size_t> sum_edges{0};
  std::atomic<std::size_t> max_edges{0};
  // Union-cost observability: atomic words or'd and max-tracking CAS
  // retries, accumulated only when a metrics sink is installed (the
  // counts are telemetry, not part of the build result).
  std::atomic<std::uint64_t> words_ord{0};
  std::atomic<std::uint64_t> cas_retries{0};
  const bool count_union = obs::metrics() != nullptr;

  driver.run(roots, rule, [&](NodeId /*root*/, const RootedTree& tree, std::size_t worker) {
    auto& ids = edge_ids[worker];
    ids.clear();
    for (const NodeId v : tree.nodes()) {
      if (v == tree.root()) continue;
      // The builders record each node's parent edge id at attach time, so the
      // union needs no adjacency search per tree edge.
      const EdgeId id = tree.parent_edge(v);
      REMSPAN_CHECK(id != kInvalidEdge);
      ids.push_back(id);
    }
    const std::size_t edges = ids.size();
    // Word-level batching (or_batch): one tree's bits merge into plain
    // masks locally, one atomic RMW per touched word — contention stays
    // off the hot loop.
    const std::size_t touched = shared.or_batch(ids);
    sum_edges.fetch_add(edges, std::memory_order_relaxed);
    std::size_t seen = max_edges.load(std::memory_order_relaxed);
    std::uint64_t retries = 0;
    while (edges > seen &&
           !max_edges.compare_exchange_weak(seen, edges, std::memory_order_relaxed)) {
      ++retries;
    }
    if (count_union) {
      words_ord.fetch_add(touched, std::memory_order_relaxed);
      cas_retries.fetch_add(retries, std::memory_order_relaxed);
    }
  });

  EdgeSet spanner(g, shared.snapshot());

  if (info != nullptr) {
    info->sum_tree_edges = sum_edges.load();
    info->max_tree_edges = max_edges.load();
    info->build_seconds = span.seconds();
  }
  if (obs::Registry* m = obs::metrics()) {
    m->counter("union.builds").add(1);
    m->counter("union.trees").add(roots.size());
    m->counter("union.words_ord").add(words_ord.load());
    m->counter("union.cas_retries").add(cas_retries.load());
    m->counter("union.spanner_edges").add(spanner.size());
  }
  return spanner;
}

EdgeSet build_remote_spanner(const Graph& g, Dist r, Dist beta, TreeAlgorithm algo,
                             SpannerBuildInfo* info) {
  return union_of_trees(g, locality_root_order(g, kLocalityCluster),
                        TreeRule::r_beta(r, beta, algo), info);
}

EdgeSet build_low_stretch_remote_spanner(const Graph& g, double eps, TreeAlgorithm algo,
                                         SpannerBuildInfo* info) {
  return union_of_trees(g, locality_root_order(g, kLocalityCluster),
                        TreeRule::low_stretch(eps, algo), info);
}

EdgeSet build_k_connecting_spanner(const Graph& g, Dist k, SpannerBuildInfo* info) {
  return union_of_trees(g, locality_root_order(g, kLocalityCluster), TreeRule::k_connecting(k),
                        info);
}

EdgeSet build_2connecting_spanner(const Graph& g, Dist k, SpannerBuildInfo* info) {
  return union_of_trees(g, locality_root_order(g, kLocalityCluster), TreeRule::two_connecting(k),
                        info);
}

EdgeSet olsr_mpr_spanner(const Graph& g, SpannerBuildInfo* info) {
  return union_of_trees(g, locality_root_order(g, kLocalityCluster), TreeRule::mpr(), info);
}

}  // namespace remspan
