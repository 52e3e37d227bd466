#include "core/remote_spanner.hpp"

#include <algorithm>
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

const RootedTree& TreeRule::build(DomTreeBuilder& builder, NodeId root) const {
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

/// Unions the tree edges into one plain bitset per worker and ORs those
/// together after the join: m/8 bytes per worker, and no atomic
/// read-modify-write, sort or compare-and-swap on the per-tree path.
///
/// Memory model: a worker writes only its own Partial (and its own
/// builder), so the tree loop shares nothing mutable. The reduction reads
/// every Partial after the driver's parallel loop has joined, and that
/// fork/join barrier orders every worker's writes before those reads.
EdgeSet union_of_trees(const Graph& g, std::span<const NodeId> roots,
                       const TreeRule& rule, SpannerBuildInfo* info) {
  obs::PhaseSpan span("core.union_of_trees");
  TreeUnionDriver driver(g);
  // One cache line apart, so two workers' tallies never share a line.
  struct alignas(64) Partial {
    DynamicBitset bits;
    std::size_t sum_edges = 0;
    std::size_t max_edges = 0;
  };
  std::vector<Partial> partial(driver.workers());
  for (Partial& p : partial) p.bits.resize(g.edge_id_bound());

  driver.run(roots, rule, [&](NodeId /*root*/, const RootedTree& tree, std::size_t worker) {
    Partial& p = partial[worker];
    // The builders record each node's parent edge id at attach time, so the
    // union needs no adjacency search per tree edge.
    for (const EdgeId id : tree.parent_edges()) {
      REMSPAN_CHECK(id != kInvalidEdge);
      p.bits.set(id);
    }
    p.sum_edges += tree.num_edges();
    p.max_edges = std::max(p.max_edges, tree.num_edges());
  });

  DynamicBitset bits = std::move(partial.front().bits);
  std::size_t sum_edges = partial.front().sum_edges;
  std::size_t max_edges = partial.front().max_edges;
  for (std::size_t w = 1; w < partial.size(); ++w) {
    bits |= partial[w].bits;
    sum_edges += partial[w].sum_edges;
    max_edges = std::max(max_edges, partial[w].max_edges);
  }
  EdgeSet spanner(g, std::move(bits));

  if (info != nullptr) {
    info->sum_tree_edges = sum_edges;
    info->max_tree_edges = max_edges;
    info->build_seconds = span.seconds();
  }
  if (obs::Registry* m = obs::metrics()) {
    m->counter("union.builds").add(1);
    m->counter("union.trees").add(roots.size());
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
