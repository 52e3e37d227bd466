// The shared random-graph corpus of the equivalence suites. Every suite
// that pins bit-exactness (domtree hot path, incremental maintenance,
// observability no-feedback, root-order invariance) sweeps the same families,
// seeds and parameter grids, so the corpus lives here once instead of
// drifting apart across test files.
//
// Determinism conventions (docs/TESTING.md): every graph is a pure
// function of (family, seed) — generators draw from an explicitly seeded
// Rng and never from ambient randomness — so a failure reproduces from the
// test's printed label alone.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dynamic/incremental_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/locality_order.hpp"
#include "util/rng.hpp"

namespace remspan::testsupport {

/// Families of equivalence_family(): each exercises a different ball
/// geometry (sparse/dense Gnp, grid, unit-ball, hypercube, bipartite).
inline constexpr int kNumEquivalenceFamilies = 6;

/// The static-equivalence corpus (domtree and order-invariance suites): small graphs
/// whose full family x seed x parameter sweep stays tier-1 fast.
inline Graph equivalence_family(int which, std::uint64_t seed) {
  Rng rng(seed);
  switch (which % kNumEquivalenceFamilies) {
    case 0:
      return connected_gnp(48, 0.10, rng);
    case 1:
      return grid_graph(8, 6);
    case 2:
      return connected_gnp(30, 0.25, rng);  // dense: big shells, heavy covers
    case 3: {
      const auto gg = uniform_unit_ball_graph(70, 5.0, 2, rng);
      const auto comps = connected_components(gg.graph);
      return induced_subgraph(gg.graph, comps.largest()).graph;
    }
    case 4:
      return hypercube_graph(5);
    default:
      return complete_bipartite(6, 8);
  }
}

/// Families of churn_family(): larger graphs for the dynamic-maintenance
/// sweeps (>= 3 per the PR-3 acceptance criteria; each a different ball
/// geometry).
inline constexpr int kNumChurnFamilies = 3;

inline Graph churn_family(int family, std::uint64_t seed) {
  Rng rng(seed);
  switch (family % kNumChurnFamilies) {
    case 0:
      return connected_gnp(90, 0.06, rng);
    case 1: {
      const auto gg = largest_component(uniform_unit_ball_graph(110, 5.5, 2, rng));
      return gg.graph;
    }
    default:
      return watts_strogatz(100, 6, 0.1, rng);
  }
}

/// A mid-size UDG largest component: the single-graph corpus of suites
/// that need one realistic topology rather than a family sweep (obs).
inline Graph observability_graph(std::uint64_t seed) {
  Rng rng(seed);
  const auto gg = random_unit_disk_graph(5.0, 160, rng);
  return largest_component(gg.graph);
}

// Parameter grids of the per-algorithm sweeps. The suites iterate these
// instead of inlining literals so every equivalence harness proves the
// same parameter space.
inline constexpr Dist kGreedyRadii[] = {2, 3, 4};
inline constexpr Dist kGreedyBetas[] = {0, 1, 2};
inline constexpr Dist kMisRadii[] = {2, 3, 5};
inline constexpr Dist kGreedyKs[] = {1, 2, 3, 5};
inline constexpr Dist kMisKs[] = {1, 2, 3};

/// The incremental-maintenance construction sweep: one rule per
/// construction family the dynamic engine supports.
inline std::vector<TreeRule> incremental_sweep_configs() {
  return {
      TreeRule::k_connecting(1),
      TreeRule::k_connecting(2),
      TreeRule::two_connecting(2),
      TreeRule::r_beta(3, 1, TreeAlgorithm::kGreedy),
      TreeRule::r_beta(2, 0, TreeAlgorithm::kGreedy),
      TreeRule::low_stretch(0.5, TreeAlgorithm::kMis),
      TreeRule::mpr(),
  };
}

/// The from-scratch build of `rule` on g (all roots, the front-ends' root
/// order): the equivalence oracle of the incremental and protocol suites.
inline EdgeSet scratch_spanner(const Graph& g, const TreeRule& rule) {
  return union_of_trees(g, locality_root_order(g, kLocalityCluster), rule);
}

/// The incremental-vs-scratch check. `maintained` (over a snapshot) must
/// equal the scratch build on that snapshot bit for bit, slot for slot; and
/// its canonical node-pair list must equal that of a scratch build on a
/// fresh canonical Graph rebuilt from the snapshot's edges, which also
/// checks the snapshot's copy-on-write rows against a plain CSR.
inline ::testing::AssertionResult matches_scratch(const EdgeSet& maintained,
                                                  const TreeRule& rule) {
  const Graph& g = maintained.graph();
  if (!(maintained == scratch_spanner(g, rule))) {
    return ::testing::AssertionFailure() << "differs from the scratch build on its snapshot";
  }
  const Graph fresh = Graph::from_canonical_edges(g.num_nodes(), g.edge_list());
  if (maintained.edge_list() != scratch_spanner(fresh, rule).edge_list()) {
    return ::testing::AssertionFailure()
           << "differs from the scratch build on a fresh canonical graph";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace remspan::testsupport
