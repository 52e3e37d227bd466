// Root-order invariance: the one per-root driver (core/remote_spanner.hpp)
// must produce the same spanner bit-for-bit and the same aggregate tree
// stats whatever order it walks the roots in — id order, locality order,
// reversed id order and a seeded shuffle — across the shared equivalence
// corpus and all five tree rules. Every root's tree is a function of
// (graph, root) alone and the union is a commutative OR, so root order is a
// pure scheduling choice; this suite is what lets the front-ends pick the
// locality order for speed. Also covered: locality_root_order itself, the
// driver's visit contract, and (under TSan, see the CI regex) the
// concurrent or_batch union.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "graph/locality_order.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

/// The four root orders every build is run in.
std::vector<std::vector<NodeId>> root_orders(const Graph& g, std::uint64_t seed) {
  std::vector<NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), NodeId{0});
  std::vector<NodeId> reversed(ids.rbegin(), ids.rend());
  std::vector<NodeId> shuffled = ids;
  Rng rng(seed);
  rng.shuffle(shuffled);
  return {ids, locality_root_order(g, kLocalityCluster), reversed, shuffled};
}

/// Runs the driver over every root order and requires the exact same edge
/// set and aggregate stats each time — and the same again from the
/// front-end, which picks its own order.
void expect_order_invariant(const Graph& g, const std::string& label,
                            const TreeRule& rule,
                            const std::function<EdgeSet(SpannerBuildInfo*)>& front_end) {
  const auto orders = root_orders(g, g.num_edges() + 17);
  SpannerBuildInfo ref_info;
  const EdgeSet ref = union_of_trees(g, orders[0], rule, &ref_info);
  for (std::size_t i = 1; i < orders.size(); ++i) {
    SpannerBuildInfo info;
    const EdgeSet got = union_of_trees(g, orders[i], rule, &info);
    const std::string at = label + " order=" + std::to_string(i);
    EXPECT_TRUE(got == ref) << at << ": spanner differs";
    EXPECT_EQ(info.sum_tree_edges, ref_info.sum_tree_edges) << at;
    EXPECT_EQ(info.max_tree_edges, ref_info.max_tree_edges) << at;
  }
  SpannerBuildInfo info;
  EXPECT_TRUE(front_end(&info) == ref) << label << " front-end: spanner differs";
  EXPECT_EQ(info.sum_tree_edges, ref_info.sum_tree_edges) << label << " front-end";
  EXPECT_EQ(info.max_tree_edges, ref_info.max_tree_edges) << label << " front-end";
}

/// Position i of `order` is adjacent to some earlier position.
bool adjacent_to_predecessor(const Graph& g, const std::vector<NodeId>& order, std::size_t i) {
  for (const NodeId w : g.neighbors(order[i])) {
    if (std::find(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(i), w) !=
        order.begin() + static_cast<std::ptrdiff_t>(i)) {
      return true;
    }
  }
  return false;
}

void expect_permutation(const Graph& g, const std::vector<NodeId>& order) {
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<std::uint8_t> seen(g.num_nodes(), 0);
  for (const NodeId v : order) {
    ASSERT_LT(v, g.num_nodes());
    EXPECT_EQ(seen[v], 0) << "duplicate root " << v;
    seen[v] = 1;
  }
}

// --- locality order -------------------------------------------------------

TEST(OrderInvariance, LocalityOrderIsAPermutationInBfsOrder) {
  const Graph g = testsupport::equivalence_family(3, 7);
  const auto order = locality_root_order(g, 0);
  expect_permutation(g, order);
  // BFS property on a connected graph: every node after the first is
  // adjacent to some earlier node of the order.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_TRUE(adjacent_to_predecessor(g, order, i))
        << "order[" << i << "]=" << order[i] << " not adjacent to a predecessor";
  }
}

TEST(OrderInvariance, ClusteredOrderIsAPermutationOfCompactBlobs) {
  // With a cluster bound, every position is either BFS-reachable from an
  // earlier position or a fresh cluster seed — and the seed rule is
  // "smallest unvisited id", i.e. the minimum of the remaining suffix. The
  // second graph is larger than kLocalityCluster, so the builds' own
  // cluster size splits it too.
  for (const Graph& g :
       {testsupport::equivalence_family(3, 7), testsupport::observability_graph(42)}) {
    for (const std::size_t cluster :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}, kLocalityCluster}) {
      const auto order = locality_root_order(g, cluster);
      expect_permutation(g, order);
      for (std::size_t i = 1; i < order.size(); ++i) {
        if (adjacent_to_predecessor(g, order, i)) continue;
        const NodeId min_remaining =
            *std::min_element(order.begin() + static_cast<std::ptrdiff_t>(i), order.end());
        EXPECT_EQ(order[i], min_remaining)
            << "cluster=" << cluster << " order[" << i
            << "] is neither adjacent to a predecessor nor the seed rule's pick";
      }
    }
  }
}

// --- driver ---------------------------------------------------------------

TEST(OrderInvariance, DriverVisitsEachRootOnceAcrossRebinds) {
  const Graph g = testsupport::equivalence_family(0, 5);
  const Graph other = testsupport::equivalence_family(0, 6);  // same node count
  ASSERT_EQ(g.num_nodes(), other.num_nodes());
  TreeUnionDriver driver(g);
  DomTreeBuilder reference(other);
  driver.rebind(other);
  // A subset with a gap, like a dirty batch: only its roots are visited,
  // each once, with a valid worker id and the tree of the bound graph.
  std::vector<NodeId> roots;
  for (NodeId u = 0; u < other.num_nodes(); u += 3) roots.push_back(u);
  std::vector<std::atomic<int>> visits(other.num_nodes());
  std::vector<std::size_t> tree_nodes(other.num_nodes(), 0);
  std::atomic<bool> worker_ok{true};
  const TreeRule rule = TreeRule::k_connecting(1);
  driver.run(roots, rule, [&](NodeId root, const RootedTree& tree, std::size_t worker) {
    visits[root].fetch_add(1);
    tree_nodes[root] = tree.num_nodes();
    if (worker >= driver.workers()) worker_ok = false;
  });
  EXPECT_TRUE(worker_ok.load());
  for (NodeId u = 0; u < other.num_nodes(); ++u) {
    EXPECT_EQ(visits[u].load(), u % 3 == 0 ? 1 : 0) << "root " << u;
    if (u % 3 == 0) EXPECT_EQ(tree_nodes[u], reference.greedy_k(u, 1).num_nodes()) << u;
  }
}

// --- union invariance -----------------------------------------------------

TEST(OrderInvariance, GreedySpannersBitExactAcrossRootOrders) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 6000 * seed + which);
      for (const Dist r : testsupport::kGreedyRadii) {
        for (const Dist beta : testsupport::kGreedyBetas) {
          expect_order_invariant(
              g,
              "greedy family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                  " r=" + std::to_string(r) + " beta=" + std::to_string(beta),
              TreeRule::r_beta(r, beta, TreeAlgorithm::kGreedy),
              [&](SpannerBuildInfo* info) {
                return build_remote_spanner(g, r, beta, TreeAlgorithm::kGreedy, info);
              });
        }
      }
    }
  }
}

TEST(OrderInvariance, MisSpannersBitExactAcrossRootOrders) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 7000 * seed + which);
      for (const Dist r : testsupport::kMisRadii) {
        expect_order_invariant(
            g,
            "mis family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                " r=" + std::to_string(r),
            TreeRule::r_beta(r, 1, TreeAlgorithm::kMis),
            [&](SpannerBuildInfo* info) {
              return build_remote_spanner(g, r, 1, TreeAlgorithm::kMis, info);
            });
      }
    }
  }
}

TEST(OrderInvariance, GreedyKSpannersBitExactAcrossRootOrders) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 8000 * seed + which);
      for (const Dist k : testsupport::kGreedyKs) {
        expect_order_invariant(
            g,
            "greedy_k family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                " k=" + std::to_string(k),
            TreeRule::k_connecting(k),
            [&](SpannerBuildInfo* info) { return build_k_connecting_spanner(g, k, info); });
      }
    }
  }
}

TEST(OrderInvariance, MisKSpannersBitExactAcrossRootOrders) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 9000 * seed + which);
      for (const Dist k : testsupport::kMisKs) {
        expect_order_invariant(
            g,
            "mis_k family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                " k=" + std::to_string(k),
            TreeRule::two_connecting(k),
            [&](SpannerBuildInfo* info) { return build_2connecting_spanner(g, k, info); });
      }
    }
  }
}

TEST(OrderInvariance, MprSpannersBitExactAcrossRootOrders) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 9500 * seed + which);
      expect_order_invariant(
          g, "mpr family=" + std::to_string(which) + " seed=" + std::to_string(seed),
          TreeRule::mpr(), [&](SpannerBuildInfo* info) { return olsr_mpr_spanner(g, info); });
    }
  }
}

/// A larger unit-disk graph (the paper's topology) through the low-stretch
/// front-end: the dispatch path a production caller takes, on a graph big
/// enough that the locality order has several clusters.
TEST(OrderInvariance, LowStretchUdgBitExactThroughFrontEnd) {
  const Graph g = testsupport::observability_graph(42);
  const Dist r = domination_radius_for_eps(0.5);
  expect_order_invariant(
      g, "th1 udg", TreeRule::r_beta(r, 1, TreeAlgorithm::kMis),
      [&](SpannerBuildInfo* info) {
        return build_low_stretch_remote_spanner(g, 0.5, TreeAlgorithm::kMis, info);
      });
}

}  // namespace
}  // namespace remspan
