// Remote-spanner construction: the union over every node u of a dominating
// tree rooted at u (the paper's Section 2.3 / 3.3 recipe, i.e. the local
// computation each node performs in Algorithm RemSpan). The per-root tree
// computations are independent, so they run on the thread pool.
//
// TreeUnionDriver is the library's one per-root build loop: the static
// union below and the incremental engine (dynamic/incremental_spanner.hpp)
// are its two visitors. Root order never changes the output
// (tests/test_order_invariance.cpp), so builds pick it for cache reuse.
//
// Front-ends for the three theorems:
//   Theorem 1: (1+eps, 1-2eps)-remote-spanner   = union of (r,1)-dominating
//              trees with r = ceil(1/eps)+1 (greedy or MIS trees).
//   Theorem 2: k-connecting (1,0)-remote-spanner = union of k-connecting
//              (2,0)-dominating trees (greedy k-cover).
//   Theorem 3: 2-connecting (2,-1)-remote-spanner = union of 2-connecting
//              (2,1)-dominating trees (k rounds of MIS).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/dominating_tree.hpp"
#include "core/params.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"

namespace remspan {

/// Which per-root tree algorithm backs the construction.
enum class TreeAlgorithm {
  kGreedy,  // set-cover greedy: log Delta-approximate tree size (Prop. 2/6)
  kMis,     // local MIS: constant-size trees on doubling UBGs (Prop. 3/7)
};

/// Aggregate facts about a build, reported by the benches.
struct SpannerBuildInfo {
  std::size_t sum_tree_edges = 0;  // sum over roots (counts shared edges repeatedly)
  std::size_t max_tree_edges = 0;  // largest single dominating tree
  double build_seconds = 0.0;      // wall time of the parallel union
};

/// Builds one root's tree with the worker's builder.
using TreeMaker = std::function<RootedTree(DomTreeBuilder&, NodeId)>;
/// Receives each built tree; `worker` indexes per-worker scratch
/// (< TreeUnionDriver::workers()). Called concurrently from pool workers.
using TreeVisitor = std::function<void(NodeId root, const RootedTree& tree, std::size_t worker)>;

/// The per-root build loop: one DomTreeBuilder per ThreadPool::global()
/// worker, kept across runs and re-targetable with rebind(), so a caller
/// that rebuilds a few roots per batch allocates nothing proportional to n.
class TreeUnionDriver {
 public:
  explicit TreeUnionDriver(const Graph& g);

  /// Re-targets every builder at a graph over the same node universe.
  void rebind(const Graph& g);

  [[nodiscard]] std::size_t workers() const noexcept { return builders_.size(); }

  /// Runs visit(root, make_tree(builder, root), worker) for every root of
  /// `roots` on the global pool and blocks until all finished. Roots are
  /// handed out in dynamic chunks of consecutive span entries, so an order
  /// with locality gives each worker overlapping balls.
  void run(std::span<const NodeId> roots, const TreeMaker& make_tree, const TreeVisitor& visit);

 private:
  std::vector<std::unique_ptr<DomTreeBuilder>> builders_;
};

/// The static union: ORs the tree of every root in `roots` into one shared
/// atomic bitset. The result depends on the root SET only, never its order.
[[nodiscard]] EdgeSet union_of_trees(const Graph& g, std::span<const NodeId> roots,
                                     const TreeMaker& make_tree,
                                     SpannerBuildInfo* info = nullptr);

/// Union of (r, beta)-dominating trees for every root. beta must be 1 when
/// algo == kMis (Algorithm 2 is specific to beta = 1). Every front-end
/// builds all roots in locality_root_order(g, kLocalityCluster).
[[nodiscard]] EdgeSet build_remote_spanner(const Graph& g, Dist r, Dist beta,
                                           TreeAlgorithm algo,
                                           SpannerBuildInfo* info = nullptr);

/// Theorem 1 front-end: a (1+eps, 1-2eps)-remote-spanner, 0 < eps <= 1.
[[nodiscard]] EdgeSet build_low_stretch_remote_spanner(const Graph& g, double eps,
                                                       TreeAlgorithm algo = TreeAlgorithm::kMis,
                                                       SpannerBuildInfo* info = nullptr);

/// Theorem 2 front-end: a k-connecting (1,0)-remote-spanner. For k = 1 this
/// is a (1,0)-remote-spanner, i.e. exact remote distances (the multipoint
/// relay sub-graph of OLSR).
[[nodiscard]] EdgeSet build_k_connecting_spanner(const Graph& g, Dist k,
                                                 SpannerBuildInfo* info = nullptr);

/// Theorem 3 front-end: union of k-connecting (2,1)-dominating trees. For
/// k = 2 this is a 2-connecting (2,-1)-remote-spanner with O(n) edges on
/// doubling unit ball graphs.
[[nodiscard]] EdgeSet build_2connecting_spanner(const Graph& g, Dist k = 2,
                                                SpannerBuildInfo* info = nullptr);

}  // namespace remspan
