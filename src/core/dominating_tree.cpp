#include "core/dominating_tree.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/obs.hpp"

namespace remspan {

DomTreeBuilder::DomTreeBuilder(const Graph& g)
    : g_(&g), bfs_(g.num_nodes()), tree_(kInvalidNode) {}

void DomTreeBuilder::rebind(const Graph& g) {
  REMSPAN_CHECK(g.num_nodes() == bfs_.num_nodes());
  g_ = &g;
}

void DomTreeBuilder::begin(NodeId u, Dist depth) {
  bfs_.run(GraphView(*g_), u, depth);
  marks_.assign(bfs_.order().size() + 1, Mark{});
  heap_.clear();
  tree_.reset(u);
  mark(u).member = 1;
}

std::uint32_t DomTreeBuilder::attach(NodeId p, NodeId v, EdgeId edge) {
  const std::uint32_t pm = mark(p).member;
  REMSPAN_CHECK(pm != 0);
  Mark& mv = mark(v);
  if (mv.member != 0) {
    REMSPAN_CHECK(tree_.links_[mv.member - 1].parent == p);
    return mv.member - 1;
  }
  const auto i = static_cast<std::uint32_t>(tree_.append(pm - 1, v, edge));
  mv.member = i + 1;
  return i;
}

void DomTreeBuilder::add_parent_chain(NodeId x) {
  // Collect the BFS ancestors of x that are not yet in the tree, then attach
  // them top-down. Because every chain comes from the same root BFS, the
  // union stays a tree and d_T(root, x) = d_G(root, x).
  NodeId chain[64];
  std::size_t len = 0;
  while (mark(x).member == 0) {
    REMSPAN_CHECK(len < 64);
    chain[len++] = x;
    x = bfs_.parent(x);
    REMSPAN_CHECK(x != kInvalidNode);
  }
  while (len > 0) {
    const NodeId child = chain[--len];
    attach(x, child, bfs_.parent_edge(child));
    x = child;
  }
}

void DomTreeBuilder::publish_stats() {
  // Always drained, so a sink installed mid-process starts from zero
  // instead of inheriting tallies of builds it never saw.
  const std::uint64_t pops = std::exchange(stat_heap_pops_, 0);
  const std::uint64_t rekeys = std::exchange(stat_heap_rekeys_, 0);
  const std::uint64_t touches = std::exchange(stat_cover_touches_, 0);
  if (obs::Registry* m = obs::metrics()) {
    m->counter("domtree.builds").add(1);
    m->counter("domtree.heap_pops").add(pops);
    m->counter("domtree.heap_rekeys").add(rekeys);
    m->counter("domtree.cover_touches").add(touches);
    m->histogram("domtree.tree_edges").record(tree_.num_edges());
  }
}

const RootedTree& DomTreeBuilder::greedy(NodeId u, Dist r, Dist beta) {
  REMSPAN_CHECK(r >= 2);
  begin(u, std::max(r, r - 1 + beta));

  // cover(x) = |({x} ∪ N(x)) ∩ S|: recomputed only for candidates that
  // surface at the top of the lazy heap (see pop_best_candidate).
  auto live_cover = [&](NodeId x) {
    std::uint32_t cover = mark(x).in_s;
    for (const NodeId y : g_->neighbors(x)) cover += mark(y).in_s;
    return cover;
  };

  for (Dist shell = 2; shell <= r; ++shell) {
    // S := nodes at distance exactly `shell` — one contiguous BFS slice;
    // X := nodes in the distance range [shell-1, shell-1+beta].
    const auto s_nodes = bfs_.shell(shell);
    std::size_t s_count = s_nodes.size();
    if (s_count == 0) continue;
    for (const NodeId v : s_nodes) mark(v).in_s = 1;

    // Clamp the candidate range to shells that exist: shells past the ball's
    // eccentricity are empty, and a huge beta must not spin over them.
    const Dist x_hi = static_cast<Dist>(std::min<std::uint64_t>(
        std::uint64_t{shell} - 1 + beta, bfs_.num_shells() - 1));

    heap_.clear();
    for (Dist d = shell - 1; d <= x_hi; ++d) {
      for (const NodeId x : bfs_.shell(d)) {
        mark(x).in_x = 1;
        const std::uint32_t cover = live_cover(x);
        if (cover > 0) heap_.push_back({heap_key(cover, x), s_epoch_});
      }
    }
    std::make_heap(heap_.begin(), heap_.end());

    while (s_count > 0) {
      // Greedy set-cover pick: the candidate outside M covering the most
      // still-uncovered shell nodes; ties go to the smallest id.
      const NodeId best = pop_best_candidate(/*unpicked=*/1, live_cover);
      // Uncovered shell nodes always retain an unpicked BFS predecessor in
      // X, so the greedy can never stall (Proposition 2's argument).
      REMSPAN_CHECK(best != kInvalidNode);
      Mark& mb = mark(best);
      mb.in_x = 2;
      add_parent_chain(best);
      if (mb.in_s != 0) {
        mb.in_s = 0;
        --s_count;
      }
      for (const NodeId y : g_->neighbors(best)) {
        Mark& my = mark(y);
        if (my.in_s != 0) {
          my.in_s = 0;
          --s_count;
        }
      }
      ++s_epoch_;  // a positive-cover pick always shrank S
    }
    for (Dist d = shell - 1; d <= x_hi; ++d) {
      for (const NodeId x : bfs_.shell(d)) mark(x).in_x = 0;
    }
  }
  publish_stats();
  return tree_;
}

const RootedTree& DomTreeBuilder::mis(NodeId u, Dist r) {
  REMSPAN_CHECK(r >= 2);
  begin(u, r);

  // B := B(u, r) \ B(u, 1), processed by (distance, id): shells are
  // contiguous slices of the BFS order, so sorting each shell by id — far
  // cheaper than one global sort of the ball — yields the deterministic
  // "pick x at minimal distance" order of Algorithm 2.
  const Dist num_shells = bfs_.num_shells();
  for (Dist d = 2; d < num_shells; ++d) {
    for (const NodeId v : bfs_.shell(d)) mark(v).in_s = 1;
  }
  for (Dist d = 2; d < num_shells; ++d) {
    const auto sh = bfs_.shell(d);
    shell_sorted_.assign(sh.begin(), sh.end());
    std::sort(shell_sorted_.begin(), shell_sorted_.end());
    for (const NodeId x : shell_sorted_) {
      if (mark(x).in_s == 0) continue;
      // x is the remaining node of B at minimal distance: add it to the MIS.
      add_parent_chain(x);
      mark(x).in_s = 0;
      for (const NodeId y : g_->neighbors(x)) mark(y).in_s = 0;
    }
  }
  publish_stats();
  return tree_;
}

const RootedTree& DomTreeBuilder::greedy_k(NodeId u, Dist k) {
  REMSPAN_CHECK(k >= 1);
  begin(u, 2);

  // S := distance-2 shell. cov counts |N(v) ∩ M|, rem counts the common
  // neighbors of v and u not yet picked into M.
  const auto s_nodes = bfs_.shell(2);
  std::size_t s_count = s_nodes.size();
  for (const NodeId v : s_nodes) mark(v).in_s = 1;
  for (const NodeId x : g_->neighbors(u)) {
    for (const NodeId y : g_->neighbors(x)) {
      Mark& my = mark(y);
      if (my.in_s != 0) ++my.rem;
    }
  }
  // cover(x) = |N(x) ∩ S| per relay candidate x ∈ N(u); lazy-heap picks as
  // in greedy(), revalidated against this on pop.
  auto live_cover = [&](NodeId x) {
    std::uint32_t cover = 0;
    for (const NodeId y : g_->neighbors(x)) cover += mark(y).in_s;
    return cover;
  };
  for (const NodeId x : g_->neighbors(u)) {
    const std::uint32_t cover = live_cover(x);
    if (cover > 0) heap_.push_back({heap_key(cover, x), s_epoch_});
  }
  std::make_heap(heap_.begin(), heap_.end());

  while (s_count > 0) {
    const NodeId best = pop_best_candidate(/*unpicked=*/0, live_cover);
    REMSPAN_CHECK(best != kInvalidNode);
    mark(best).in_x = 1;
    attach(u, best, bfs_.parent_edge(best));
    bool removed = false;
    for (const NodeId y : g_->neighbors(best)) {
      Mark& my = mark(y);
      if (my.in_s == 0) continue;
      ++my.cov;
      --my.rem;
      // Covered k times, or every common neighbor is now in M: done with y.
      if (my.cov >= k || my.rem == 0) {
        my.in_s = 0;
        --s_count;
        removed = true;
      }
    }
    if (removed) ++s_epoch_;
  }
  publish_stats();
  return tree_;
}

const RootedTree& DomTreeBuilder::mis_k(NodeId u, Dist k) {
  REMSPAN_CHECK(k >= 1);
  begin(u, 2);

  // S := distance-2 shell (kept in id order for deterministic picks);
  // rem = |(N(v) ∩ N(u)) \ V(T)|; v's branch_table_ row = the distinct tree
  // branches holding a neighbor of v within depth 2.
  const auto s_nodes = bfs_.shell(2);
  std::size_t s_count = s_nodes.size();
  for (const NodeId v : s_nodes) mark(v).in_s = 1;
  shell_sorted_.assign(s_nodes.begin(), s_nodes.end());
  std::sort(shell_sorted_.begin(), shell_sorted_.end());
  const auto& shell = shell_sorted_;
  for (const NodeId x : g_->neighbors(u)) {
    mark(x).nbr_u = 1;
    for (const NodeId y : g_->neighbors(x)) {
      Mark& my = mark(y);
      if (my.in_s != 0) ++my.rem;
    }
  }
  // S is one contiguous run of slots, so slot - s_base is v's row.
  const std::size_t row_len = std::min<std::size_t>(k, g_->degree(u));
  const std::uint32_t s_base = s_nodes.empty() ? 0 : bfs_.slot(s_nodes.front());
  branch_table_.resize(s_nodes.size() * row_len);

  // Attaches `node` under `parent` and updates the shell bookkeeping: a
  // node entering V(T) extends the branch sets of its shell neighbors and,
  // when it is a neighbor of u, consumes one "available common neighbor"
  // from each adjacent shell node.
  auto attach_updating = [&](NodeId parent, NodeId node) {
    // The BFS discovered node through some distance-1 predecessor; when it is
    // not the requested parent (mis_k attaches x under its fresh common
    // neighbor ys_[0]), fall back to one adjacency lookup.
    const EdgeId pe = bfs_.parent(node) == parent ? bfs_.parent_edge(node)
                                                  : g_->find_edge(parent, node);
    const RootedTree::Link& link = tree_.links_[attach(parent, node, pe)];
    const NodeId branch = link.branch;
    const bool depth_one = link.depth == 1;
    for (const NodeId w : g_->neighbors(node)) {
      Mark& mw = mark(w);
      if (mw.in_s == 0) continue;
      if (depth_one) --mw.rem;
      NodeId* row = branch_table_.data() + (bfs_.slot(w) - s_base) * row_len;
      NodeId* row_end = row + mw.branches;
      if (std::find(row, row_end, branch) == row_end) row[mw.branches++] = branch;
      if (mw.rem == 0 || mw.branches >= k) {
        mw.in_s = 0;
        --s_count;
      }
    }
  };

  for (Dist round = 1; round <= k && s_count > 0; ++round) {
    // X := S at round start.
    for (const NodeId v : shell) {
      Mark& mv = mark(v);
      mv.in_x = mv.in_s;
    }
    for (const NodeId x : shell) {
      if (s_count == 0) break;
      const Mark& mx = mark(x);
      if (mx.in_x == 0 || mx.in_s == 0) continue;
      // Pick x into this round's MIS. Its available common neighbors with u
      // are fresh depth-1 attachment points. N(u) membership and tree
      // membership are mark loads (nbr_u was set once at tree start), not
      // adjacency searches per neighbor of every pick.
      ys_.clear();
      for (const NodeId y : g_->neighbors(x)) {
        const Mark& my = mark(y);
        if (my.nbr_u != 0 && my.member == 0) ys_.push_back(y);
      }
      // x in S implies rem > 0, so at least one attachment point exists.
      REMSPAN_CHECK(!ys_.empty());
      const std::size_t count = std::min<std::size_t>(k, ys_.size());
      attach_updating(u, ys_[0]);
      // x may have been removed from S by attaching ys_[0]; it still enters
      // the tree (its own branch can dominate other shell nodes).
      attach_updating(ys_[0], x);
      for (std::size_t i = 1; i < count; ++i) attach_updating(u, ys_[i]);
      // X := X \ B(x, 1).
      mark(x).in_x = 0;
      for (const NodeId y : g_->neighbors(x)) mark(y).in_x = 0;
    }
  }
  // Proposition 7: k rounds of MIS domination always empty the shell.
  REMSPAN_CHECK(s_count == 0);
  publish_stats();
  return tree_;
}

const RootedTree& DomTreeBuilder::mpr(NodeId u) {
  begin(u, 2);

  // N2 := strict two-hop neighborhood; in_s marks its still-uncovered
  // nodes, in_x the picked relays, shell_sorted_ collects the picks.
  const auto two_hop = bfs_.shell(2);
  std::size_t uncovered = two_hop.size();
  for (const NodeId v : two_hop) mark(v).in_s = 1;
  auto& picks = shell_sorted_;
  picks.clear();

  auto add_mpr = [&](NodeId x) {
    mark(x).in_x = 1;
    picks.push_back(x);
    for (const NodeId w : g_->neighbors(x)) {
      Mark& mw = mark(w);
      if (mw.in_s != 0) {
        mw.in_s = 0;
        --uncovered;
      }
    }
  };

  // Step 1 (RFC): neighbors that are the only route to some 2-hop node.
  for (const NodeId v : two_hop) {
    NodeId sole = kInvalidNode;
    int count = 0;
    for (const NodeId w : g_->neighbors(v)) {
      if (bfs_.dist(w) == 1) {
        sole = w;
        if (++count > 1) break;
      }
    }
    if (count == 1 && mark(sole).in_x == 0) add_mpr(sole);
  }

  // Step 2 (RFC): greedy by reachability (uncovered 2-hop nodes reached),
  // ties by degree (higher first), then id.
  while (uncovered > 0) {
    NodeId best = kInvalidNode;
    std::size_t best_reach = 0;
    for (const NodeId x : g_->neighbors(u)) {
      if (mark(x).in_x != 0) continue;
      std::size_t reach = 0;
      for (const NodeId w : g_->neighbors(x)) reach += mark(w).in_s;
      if (reach == 0) continue;
      const bool better =
          reach > best_reach ||
          (reach == best_reach && (g_->degree(x) > g_->degree(best) ||
                                   (g_->degree(x) == g_->degree(best) && x < best)));
      if (best == kInvalidNode || better) {
        best_reach = reach;
        best = x;
      }
    }
    REMSPAN_CHECK(best != kInvalidNode);
    add_mpr(best);
  }

  std::sort(picks.begin(), picks.end());
  for (const NodeId m : picks) attach(u, m, bfs_.parent_edge(m));
  publish_stats();
  return tree_;
}

namespace {

/// Tree depth of every node of g (kUnreachable off the tree): the checkers
/// below are O(n) anyway, and a dense table spares them one linear member
/// scan per probe.
std::vector<Dist> tree_depths(const Graph& g, const RootedTree& tree) {
  std::vector<Dist> depth(g.num_nodes(), kUnreachable);
  for (const NodeId v : tree.nodes()) depth[v] = tree.depth(v);
  return depth;
}

}  // namespace

bool is_dominating_tree(const Graph& g, const RootedTree& tree, Dist r, Dist beta) {
  if (!tree_is_valid_subgraph(g, tree)) return false;
  const NodeId u = tree.root();
  const auto dist = bfs_distances(GraphView(g), u, r);
  const auto tree_depth = tree_depths(g, tree);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Dist d = dist[v];
    if (d < 2 || d > r || d == kUnreachable) continue;
    bool dominated = false;
    for (const NodeId x : g.neighbors(v)) {
      const Dist depth = tree_depth[x];
      if (depth != kUnreachable && depth <= d - 1 + beta) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

bool is_k_connecting_dominating_tree(const Graph& g, const RootedTree& tree, Dist k,
                                     Dist beta) {
  if (!tree_is_valid_subgraph(g, tree)) return false;
  const NodeId u = tree.root();
  const auto dist = bfs_distances(GraphView(g), u, 2);
  const auto tree_depth = tree_depths(g, tree);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] != 2) continue;
    // Alternative A: every common neighbor of u and v is attached by a root
    // edge of the tree.
    bool all_attached = true;
    for (const NodeId w : g.neighbors(v)) {
      if (g.has_edge(u, w) && tree_depth[w] != 1) {
        all_attached = false;
        break;
      }
    }
    if (all_attached) continue;
    // Alternative B: k neighbors of v within tree depth 1 + beta on k
    // distinct branches (their root paths share only the root).
    std::unordered_set<NodeId> branches;
    for (const NodeId w : g.neighbors(v)) {
      const Dist depth = tree_depth[w];
      if (depth >= 1 && depth != kUnreachable && depth <= 1 + beta) {
        branches.insert(tree.branch(w));
      }
    }
    if (branches.size() < k) return false;
  }
  return true;
}

bool tree_is_valid_subgraph(const Graph& g, const RootedTree& tree) {
  for (const NodeId v : tree.nodes()) {
    if (v == tree.root()) {
      REMSPAN_CHECK(tree.depth(v) == 0);
      continue;
    }
    const NodeId p = tree.parent(v);
    if (!g.has_edge(p, v)) return false;
    REMSPAN_CHECK(tree.depth(v) == tree.depth(p) + 1);
  }
  return true;
}

}  // namespace remspan
