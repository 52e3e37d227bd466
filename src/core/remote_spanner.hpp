// Remote-spanner construction: the union over every node u of a dominating
// tree rooted at u (the paper's Section 2.3 / 3.3 recipe, i.e. the local
// computation each node performs in Algorithm RemSpan). The per-root tree
// computations are independent, so they run on the thread pool.
//
// TreeRule is the one per-root decision: which tree a root builds and how
// far that build reads (dirty_radius()). Every layer runs on it — the
// static union below, the incremental engine (dynamic/), the protocol
// simulator (sim/) and the construction registry (api/) — and
// TreeRule::build is the library's only per-root build dispatch.
//
// TreeUnionDriver is the library's one per-root build loop: the static
// union below and the incremental engine (dynamic/incremental_spanner.hpp)
// are its two visitors. Root order never changes the output
// (tests/test_order_invariance.cpp), so builds pick it for cache reuse.
//
// Front-ends for the three theorems and the OLSR baseline:
//   Theorem 1: (1+eps, 1-2eps)-remote-spanner   = union of (r,1)-dominating
//              trees with r = ceil(1/eps)+1 (greedy or MIS trees).
//   Theorem 2: k-connecting (1,0)-remote-spanner = union of k-connecting
//              (2,0)-dominating trees (greedy k-cover).
//   Theorem 3: 2-connecting (2,-1)-remote-spanner = union of 2-connecting
//              (2,1)-dominating trees (k rounds of MIS).
//   OLSR:      (1,0)-remote-spanner = union of RFC 3626 multipoint-relay
//              stars, which are (2,0)-dominating trees (Section 1.2).
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Which dominating tree a root builds, and with which parameters. Four
/// settable fields; only the ones a kind reads are meaningful (the
/// factories set the rest so that dirty_radius() holds for every kind).
struct TreeRule {
  enum class Kind : std::uint8_t {
    kGreedy,   ///< Algorithm 1, (r, beta)-dominating trees
    kMis,      ///< Algorithm 2, (r, 1)-dominating trees
    kGreedyK,  ///< Algorithm 4, k-connecting (2,0)-dominating trees
    kMisK,     ///< Algorithm 5, k-connecting (2,1)-dominating trees
    kMpr,      ///< RFC 3626 multipoint-relay star, a (2,0)-dominating tree
  };

  Kind kind = Kind::kGreedyK;
  Dist r = 2;     ///< domination radius
  Dist beta = 0;  ///< domination slack (MIS requires beta = 1)
  Dist k = 1;     ///< connectivity target (kGreedyK / kMisK)

  /// Union of (r, beta)-dominating trees; beta must be 1 for kMis.
  [[nodiscard]] static TreeRule r_beta(Dist r, Dist beta, TreeAlgorithm algo);
  /// Theorem 1: (1+eps, 1-2eps)-remote-spanner, 0 < eps <= 1.
  [[nodiscard]] static TreeRule low_stretch(double eps, TreeAlgorithm algo = TreeAlgorithm::kMis);
  /// Theorem 2: k-connecting (1,0)-remote-spanner.
  [[nodiscard]] static TreeRule k_connecting(Dist k);
  /// Theorem 3: k-connecting (2,-1)-remote-spanner.
  [[nodiscard]] static TreeRule two_connecting(Dist k = 2);
  /// OLSR multipoint relays: (1,0)-remote-spanner.
  [[nodiscard]] static TreeRule mpr();

  /// Builds root's tree with `builder`: the one per-root build dispatch.
  [[nodiscard]] RootedTree build(DomTreeBuilder& builder, NodeId root) const;

  /// The tree of root u is a deterministic function of the edges with an
  /// endpoint within this many hops of u: max(1, r + beta - 1). The BFS
  /// shells to depth D = max(r, r-1+beta) depend on edges with an endpoint
  /// at depth <= D-1, and every cover/attachment scan reads edges with an
  /// endpoint at depth <= r-1+beta (a candidate or tree node). For the
  /// k-connecting greedy and MPR (r=2, beta=0) this is 1: only edges
  /// touching {u} ∪ N(u) influence relay selection. It is both the
  /// incremental engine's dirty radius and the protocol's flood scope.
  [[nodiscard]] Dist dirty_radius() const noexcept;

  /// Human-readable label (tool and bench output).
  [[nodiscard]] const char* name() const noexcept;

  friend bool operator==(const TreeRule&, const TreeRule&) = default;
};

/// Aggregate facts about a build, reported by the benches.
struct SpannerBuildInfo {
  std::size_t sum_tree_edges = 0;  // sum over roots (counts shared edges repeatedly)
  std::size_t max_tree_edges = 0;  // largest single dominating tree
  double build_seconds = 0.0;      // wall time of the parallel union
};

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

  /// Runs visit(root, rule.build(builder, root), worker) for every root of
  /// `roots` on the global pool and blocks until all finished. Roots are
  /// handed out in dynamic chunks of consecutive span entries, so an order
  /// with locality gives each worker overlapping balls.
  void run(std::span<const NodeId> roots, const TreeRule& rule, const TreeVisitor& visit);

 private:
  std::vector<std::unique_ptr<DomTreeBuilder>> builders_;
};

/// The static union: ORs the tree of every root in `roots` into one shared
/// atomic bitset. The result depends on the root SET only, never its order.
[[nodiscard]] EdgeSet union_of_trees(const Graph& g, std::span<const NodeId> roots,
                                     const TreeRule& rule,
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

/// OLSR baseline front-end: union over all nodes of their MPR star edges
/// {u, m} (DomTreeBuilder::mpr), the OLSR advertised sub-graph — a
/// (1,0)-remote-spanner derived independently of DomTreeGdy_{2,0,1}.
[[nodiscard]] EdgeSet olsr_mpr_spanner(const Graph& g, SpannerBuildInfo* info = nullptr);

}  // namespace remspan
