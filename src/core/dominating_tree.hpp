// The paper's four dominating-tree algorithms (Sections 2.2 and 3.3) plus
// the OLSR multipoint-relay heuristic (Section 1.2), one per-root builder
// each:
//
//   greedy(u, r, beta)  — Algorithm 1, DomTreeGdy_{r,beta}: for each shell
//       distance r' = 2..r, greedily set-covers the shell with balls of
//       candidates in the [r'-1, r'-1+beta] range. Within
//       (1+beta)(r+beta-1)(1+log Delta) of the optimal tree (Prop. 2).
//   mis(u, r)           — Algorithm 2, DomTreeMIS_{r,1}: grows a maximal
//       independent set of B(u,r)\B(u,1) by increasing distance; O(r^{p+1})
//       edges on doubling unit ball graphs (Prop. 3).
//   greedy_k(u, k)      — Algorithm 4, DomTreeGdy_{2,0,k}: greedy k-cover of
//       the distance-2 shell by neighbors of u; within 1+log Delta of
//       optimal (Prop. 6). Generalizes OLSR multipoint-relay selection.
//   mis_k(u, k)         — Algorithm 5, DomTreeMIS_{2,1,k}: k rounds of MIS
//       over the distance-2 shell, attaching each pick through fresh common
//       neighbors; O(k^2) edges on doubling UBGs (Prop. 7).
//   mpr(u)              — RFC 3626 Section 8.3.1 multipoint-relay selection:
//       neighbors that are the sole route to some 2-hop node first, then
//       greedy by reachability (ties: higher degree, then smaller id). The
//       MPR star is a (2,0)-dominating tree, so the union of all stars is a
//       (1,0)-remote-spanner — the independently derived baseline to compare
//       against greedy_k(u, 1).
//
// All five attach nodes through BFS-parent chains of the same root BFS, so
// each result is a genuine tree with d_T(u,x) = d_G(u,x).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "graph/tree.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// Reusable per-thread builder: all scratch arrays are kept between calls
/// and reset in O(|ball|) so building trees for every root of a graph costs
/// the sum of local work, not n times global resets.
///
/// The greedy set-cover picks (greedy / greedy_k) run off a lazy max-heap
/// of cover counts instead of rescanning every candidate per pick: cover
/// counts only decrease within a round, so a heap entry recorded at push
/// time is an upper bound on the live count — stale entries are popped,
/// re-validated against the live count, and the first entry that matches is
/// the true maximum (see pop_best_candidate). Ties break on smallest id
/// (encoded into the heap key), which keeps every pick — and therefore
/// every tree — bit-identical to the quadratic reference scan
/// (test_domtree_equivalence.cpp pins this down).
class DomTreeBuilder {
 public:
  explicit DomTreeBuilder(const Graph& g);

  /// Re-targets the builder at a new graph over the same node universe
  /// (num_nodes must match — all scratch arrays are sized by it). The
  /// incremental engine rebuilds dirty roots against every new snapshot
  /// with the same per-worker builders instead of reallocating the O(n)
  /// scratch each batch.
  void rebind(const Graph& g);

  /// Algorithm 1: (r, beta)-dominating tree for u. Requires r >= 2.
  [[nodiscard]] RootedTree greedy(NodeId u, Dist r, Dist beta);

  /// Algorithm 2: (r, 1)-dominating tree for u. Requires r >= 2.
  [[nodiscard]] RootedTree mis(NodeId u, Dist r);

  /// Algorithm 4: k-connecting (2, 0)-dominating tree for u (k >= 1). For
  /// k = 1 this is exactly an OLSR multipoint-relay set with its links.
  [[nodiscard]] RootedTree greedy_k(NodeId u, Dist k);

  /// Algorithm 5: k-connecting (2, 1)-dominating tree for u (k >= 1).
  [[nodiscard]] RootedTree mis_k(NodeId u, Dist k);

  /// RFC 3626 MPR set of u (a subset of N(u) covering every strict 2-hop
  /// neighbor) as a star rooted at u, MPRs attached in ascending id order.
  [[nodiscard]] RootedTree mpr(NodeId u);

 private:
  /// Adds the BFS-parent chain from x up to the first node already in the
  /// tree. Requires x to be reached by the last bfs_ run from tree.root().
  void add_parent_chain(RootedTree& tree, NodeId x);

  /// Clears the per-node flags for every node the last BFS touched.
  void reset_flags();

  /// Adds the whole-build tallies (heap pops, lazy re-keys, cover-count
  /// recomputations) into the installed metrics sink and zeroes them. The
  /// tallies themselves are plain members bumped unconditionally — the
  /// sink branch happens once per tree build, not per heap operation.
  void publish_stats(const RootedTree& tree);

  /// Heap key for the lazy max-heap: higher cover first, then smaller id
  /// (ids are stored complemented so the default max-heap order does both).
  [[nodiscard]] static constexpr std::uint64_t heap_key(std::uint32_t cover,
                                                        NodeId id) noexcept {
    return (std::uint64_t{cover} << 32) | static_cast<std::uint32_t>(~id);
  }

  /// Pops the unpicked candidate with the maximum live cover count (smallest
  /// id on ties) off heap_. `unpicked` is the in_x_ value marking a
  /// still-pickable candidate; `live_cover(x)` recomputes x's current cover
  /// in O(deg x). Returns kInvalidNode when no candidate with a positive
  /// cover count remains (the greedy-stall condition).
  ///
  /// Lazy validation (Minoux's accelerated greedy): every entry's recorded
  /// count is an upper bound on the live count because covers only decrease
  /// within a round. An entry that surfaces stale is re-pushed at its live
  /// count; the first entry that validates is the true (max cover, min id)
  /// pick. Only candidates that reach the top are ever recomputed, so a
  /// pick costs O(pops · deg) instead of O(|X| · deg) — and an entry whose
  /// epoch shows S unchanged since its count was recorded validates with no
  /// recompute at all (callers bump s_epoch_ on every removal from S).
  template <typename CoverFn>
  [[nodiscard]] NodeId pop_best_candidate(std::uint8_t unpicked, CoverFn&& live_cover) {
    while (!heap_.empty()) {
      ++stat_heap_pops_;
      const HeapEntry entry = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      const auto recorded = static_cast<std::uint32_t>(entry.key >> 32);
      const auto x = static_cast<NodeId>(~entry.key);
      if (in_x_[x] != unpicked) continue;  // picked: every remaining entry is dead
      if (entry.epoch == s_epoch_) return x;  // S untouched since recording: exact
      ++stat_cover_touches_;
      const std::uint32_t live = live_cover(x);
      if (live == 0) continue;  // covers never increase: permanently useless
      if (live != recorded) {
        ++stat_heap_rekeys_;
        push_candidate(live, x);
        continue;
      }
      return x;
    }
    return kInvalidNode;
  }

  void push_candidate(std::uint32_t cover, NodeId x) {
    heap_.push_back(HeapEntry{heap_key(cover, x), s_epoch_});
    std::push_heap(heap_.begin(), heap_.end());
  }

  const Graph* g_;
  BoundedBfs bfs_;
  // in_s_: node still needs covering; cov_: generic per-node counter;
  // branches_: distinct tree branches adjacent to a shell node (mis_k).
  std::vector<std::uint8_t> in_s_;
  std::vector<std::uint8_t> in_x_;
  std::vector<Dist> cov_;
  std::vector<Dist> rem_;
  std::vector<std::vector<NodeId>> branches_;
  /// Lazy-heap entry: key orders by (cover, smallest id); epoch is the
  /// s_epoch_ value at which the cover was recorded (exact iff unchanged).
  struct HeapEntry {
    std::uint64_t key;
    std::uint32_t epoch;
    [[nodiscard]] bool operator<(const HeapEntry& o) const noexcept { return key < o.key; }
  };

  // nbr_u_: marks N(root) so mis_k's attach-point test is an O(1) flag
  // load instead of a per-neighbor adjacency search.
  std::vector<std::uint8_t> nbr_u_;
  // heap_: lazy max-heap over heap_key(cover, id);
  // shell_sorted_: per-shell id-order scratch (mis, mis_k; mpr's picks).
  std::vector<HeapEntry> heap_;
  std::vector<NodeId> shell_sorted_;
  // Bumped once per batch of removals from the cover target set S; heap
  // entries recorded at the current epoch need no revalidation.
  std::uint32_t s_epoch_ = 0;
  // Whole-build observability tallies (see publish_stats).
  std::uint64_t stat_heap_pops_ = 0;
  std::uint64_t stat_heap_rekeys_ = 0;
  std::uint64_t stat_cover_touches_ = 0;
};

// --- property checkers (used by tests and the approximation benches) -------

/// Exhaustively checks the (r,beta)-dominating-tree condition: every v with
/// 2 <= d_G(u,v) = r' <= r has a neighbor x in V(T) with
/// d_T(u,x) <= r' - 1 + beta.
[[nodiscard]] bool is_dominating_tree(const Graph& g, const RootedTree& tree, Dist r, Dist beta);

/// Checks the k-connecting (2,beta)-dominating-tree condition: every v at
/// distance 2 from the root either has all common neighbors attached as
/// root edges, or has k neighbors within tree depth 1+beta lying on k
/// distinct branches (pairwise internally disjoint root paths).
[[nodiscard]] bool is_k_connecting_dominating_tree(const Graph& g, const RootedTree& tree,
                                                   Dist k, Dist beta);

/// Every tree edge must be a G edge and depths must be consistent; trips a
/// check on structurally broken trees, returns true otherwise.
[[nodiscard]] bool tree_is_valid_subgraph(const Graph& g, const RootedTree& tree);

}  // namespace remspan
