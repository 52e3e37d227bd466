// Geometry: metrics, point generators, unit ball graph construction
// (bucketed construction cross-checked against brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/ball_graph.hpp"
#include "geom/points.hpp"
#include "graph/connectivity.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

/// 64-bit FNV-1a over the canonical edge list, each endpoint folded as four
/// little-endian bytes (u then v, edges in canonical order).
std::uint64_t edge_list_fnv1a(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](NodeId x) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (x >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Edge& e : g.edges()) {
    fold(e.u);
    fold(e.v);
  }
  return h;
}

TEST(Metric, L2Distance) {
  const std::vector<double> a{0, 0};
  const std::vector<double> b{3, 4};
  EXPECT_DOUBLE_EQ(metric_distance(MetricKind::L2, a, b), 5.0);
}

TEST(Metric, L1Distance) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 0, 3};
  EXPECT_DOUBLE_EQ(metric_distance(MetricKind::L1, a, b), 5.0);
}

TEST(Metric, LInfDistance) {
  const std::vector<double> a{1, 2};
  const std::vector<double> b{4, 0};
  EXPECT_DOUBLE_EQ(metric_distance(MetricKind::LInf, a, b), 3.0);
}

TEST(Metric, TriangleInequalityHolds) {
  Rng rng(5);
  const PointSet ps = uniform_points(30, 10.0, 3, rng);
  for (const auto kind : {MetricKind::L2, MetricKind::L1, MetricKind::LInf}) {
    for (std::size_t i = 0; i < 10; ++i) {
      const auto a = ps.point(3 * i);
      const auto b = ps.point(3 * i + 1);
      const auto c = ps.point(3 * i + 2);
      EXPECT_LE(metric_distance(kind, a, c),
                metric_distance(kind, a, b) + metric_distance(kind, b, c) + 1e-12);
    }
  }
}

TEST(PointSet, StoresAndRetrieves) {
  PointSet ps(2);
  ps.add2(1.0, 2.0);
  ps.add2(3.0, 4.0);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps.point(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(ps.point(1)[1], 4.0);
}

TEST(Generators, UniformPointsInBounds) {
  Rng rng(1);
  const PointSet ps = uniform_points(200, 7.5, 2, rng);
  EXPECT_EQ(ps.size(), 200u);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (const double c : ps.point(i)) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 7.5);
    }
  }
}

TEST(Generators, PoissonCountConcentrates) {
  Rng rng(2);
  double total = 0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i) {
    total += static_cast<double>(poisson_points_in_square(5.0, 300.0, rng).size());
  }
  EXPECT_NEAR(total / reps, 300.0, 20.0);
}

TEST(Generators, ClusteredPointsInBounds) {
  Rng rng(3);
  const PointSet ps = clustered_points(150, 6.0, 2, 5, 0.8, rng);
  EXPECT_EQ(ps.size(), 150u);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (const double c : ps.point(i)) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 6.0);
    }
  }
}

/// Checks every pair of gg's points against the generator's predicate,
/// metric_distance(...) <= radius, edge for edge (stops at the first
/// mismatch to keep a failure readable).
void expect_matches_brute_force(const GeometricGraph& gg) {
  const NodeId n = static_cast<NodeId>(gg.points.size());
  ASSERT_EQ(gg.graph.num_nodes(), n);
  std::size_t expected_edges = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const bool close =
          metric_distance(gg.metric, gg.points.point(a), gg.points.point(b)) <= gg.radius;
      ASSERT_EQ(gg.graph.has_edge(a, b), close) << a << "," << b;
      expected_edges += close;
    }
  }
  EXPECT_EQ(gg.graph.num_edges(), expected_edges);
}

TEST(BallGraph, MatchesBruteForceL2) {
  Rng rng(4);
  const GeometricGraph gg = unit_ball_graph(uniform_points(120, 4.0, 2, rng), MetricKind::L2, 1.0);
  expect_matches_brute_force(gg);
}

TEST(BallGraph, MatchesBruteForceLInf3D) {
  Rng rng(6);
  const GeometricGraph gg =
      unit_ball_graph(uniform_points(80, 3.0, 3, rng), MetricKind::LInf, 1.0);
  expect_matches_brute_force(gg);
}

TEST(BallGraph, MatchesBruteForceAcrossDimsMetricsRadii) {
  // Points in [-side/2, side/2)^dim, so cells straddle zero; the lattice
  // variant snaps every coordinate to a multiple of radius / 2, which puts
  // points on cell boundaries and pairs at distance exactly radius.
  for (std::size_t dim = 1; dim <= 4; ++dim) {
    for (const auto metric : {MetricKind::L2, MetricKind::L1, MetricKind::LInf}) {
      for (const double radius : {0.5, 1.0, 1.7}) {
        for (const bool lattice : {false, true}) {
          Rng rng(100 * dim + static_cast<std::uint64_t>(metric) * 10 + (lattice ? 1 : 0));
          const double side = radius * (dim == 1 ? 30.0 : dim == 2 ? 6.0 : 3.0);
          PointSet ps(dim);
          std::vector<double> p(dim);
          for (int i = 0; i < 90; ++i) {
            for (double& x : p) {
              x = rng.uniform_real(-side / 2, side / 2);
              if (lattice) x = std::round(x / (radius / 2)) * (radius / 2);
            }
            ps.add(p);
          }
          SCOPED_TRACE(testing::Message() << "dim " << dim << " metric "
                                          << static_cast<int>(metric) << " radius " << radius
                                          << (lattice ? " lattice" : ""));
          expect_matches_brute_force(unit_ball_graph(std::move(ps), metric, radius));
        }
      }
    }
  }
}

TEST(BallGraph, EmptyAndSingletonInputs) {
  for (std::size_t dim = 1; dim <= 3; ++dim) {
    const GeometricGraph empty = unit_ball_graph(PointSet(dim));
    EXPECT_EQ(empty.graph.num_nodes(), 0u);
    EXPECT_EQ(empty.graph.num_edges(), 0u);
    PointSet one(dim);
    one.add(std::vector<double>(dim, -2.5));
    const GeometricGraph single = unit_ball_graph(std::move(one));
    EXPECT_EQ(single.graph.num_nodes(), 1u);
    EXPECT_EQ(single.graph.num_edges(), 0u);
  }
}

TEST(BallGraph, DuplicatePointsAreJoined) {
  // Coincident points are at distance 0 <= radius: every pair among them
  // is an edge, whichever cell the shared coordinates fall in.
  PointSet ps(2);
  ps.add2(3.0, -1.0);
  ps.add2(0.25, 0.25);
  ps.add2(3.0, -1.0);
  ps.add2(-7.0, 7.0);
  ps.add2(3.0, -1.0);
  ps.add2(0.25, 0.25);
  const GeometricGraph gg = unit_ball_graph(std::move(ps), MetricKind::L2, 0.5);
  EXPECT_TRUE(gg.graph.has_edge(0, 2));
  EXPECT_TRUE(gg.graph.has_edge(0, 4));
  EXPECT_TRUE(gg.graph.has_edge(2, 4));
  EXPECT_TRUE(gg.graph.has_edge(1, 5));
  EXPECT_EQ(gg.graph.num_edges(), 4u);
  expect_matches_brute_force(gg);
}

TEST(BallGraph, CoordinatesOnCellBoundaries) {
  // Exact multiples of the radius, negative ones included: consecutive
  // points sit exactly radius apart (an edge, the predicate is <=), and
  // points two cells apart are not joined.
  const double radius = 0.75;
  PointSet ps(1);
  for (const int k : {2, -1, 0, 3, 1, -2}) ps.add(std::vector<double>{k * radius});
  const GeometricGraph gg = unit_ball_graph(std::move(ps), MetricKind::L1, radius);
  EXPECT_EQ(gg.graph.num_edges(), 5u);  // the path -2, -1, 0, 1, 2, 3
  expect_matches_brute_force(gg);
}

TEST(BallGraph, RejectsNonFiniteOrOutOfRangeCoordinates) {
  const auto build_with = [](double x, double radius) {
    PointSet ps(2);
    ps.add2(0.0, 0.0);
    ps.add2(1.0, x);
    return unit_ball_graph(std::move(ps), MetricKind::L2, radius);
  };
  EXPECT_THROW((void)build_with(std::nan(""), 1.0), CheckError);
  EXPECT_THROW((void)build_with(std::numeric_limits<double>::infinity(), 1.0), CheckError);
  EXPECT_THROW((void)build_with(-std::numeric_limits<double>::infinity(), 1.0), CheckError);
  EXPECT_THROW((void)build_with(1e300, 1.0), CheckError);
  EXPECT_THROW((void)build_with(-1e300, 1.0), CheckError);
  // |x / radius| must stay below 2^52 so cell coordinates are exact.
  EXPECT_THROW((void)build_with(1.0, 1e-16), CheckError);
  EXPECT_THROW((void)build_with(0x1p52, 1.0), CheckError);
  EXPECT_EQ(build_with(0x1p52 - 1.0, 1.0).graph.num_edges(), 0u);
  EXPECT_EQ(build_with(0.0, 1.0).graph.num_edges(), 1u);
  EXPECT_THROW((void)build_with(0.5, 0.0), CheckError);
}

TEST(BallGraph, RadiusScalesNeighborhoods) {
  Rng rng(8);
  PointSet ps = uniform_points(100, 5.0, 2, rng);
  PointSet ps_copy(2);
  for (std::size_t i = 0; i < ps.size(); ++i) ps_copy.add(ps.point(i));
  const GeometricGraph small = unit_ball_graph(std::move(ps), MetricKind::L2, 0.5);
  const GeometricGraph large = unit_ball_graph(std::move(ps_copy), MetricKind::L2, 1.5);
  EXPECT_LT(small.graph.num_edges(), large.graph.num_edges());
}

TEST(BallGraph, EdgeLengthsWithinRadius) {
  Rng rng(9);
  const GeometricGraph gg = uniform_unit_ball_graph(150, 6.0, 2, rng);
  for (const Edge& e : gg.graph.edges()) {
    EXPECT_LE(gg.edge_length(e), gg.radius + 1e-12);
  }
}

TEST(BallGraph, RandomUdgDensityMatchesTheory) {
  // Expected degree of a node away from the border is lambda * pi with
  // lambda = n / side^2 the intensity; check within a loose factor (border
  // effects lower the mean).
  Rng rng(10);
  const double side = 10.0;
  const double mean_nodes = 800.0;
  const GeometricGraph gg = random_unit_disk_graph(side, mean_nodes, rng);
  const double lambda = mean_nodes / (side * side);
  const double expected_degree = lambda * 3.14159265;
  EXPECT_GT(gg.graph.average_degree(), 0.6 * expected_degree);
  EXPECT_LT(gg.graph.average_degree(), 1.1 * expected_degree);
}

TEST(BallGraph, PinnedUdgOutput) {
  // Pinned generator output: any rewrite of unit_ball_graph or
  // largest_component must reproduce these graphs edge for edge.
  Rng rng(7);
  const GeometricGraph full = random_unit_disk_graph(80.0, 2e4, rng);
  EXPECT_EQ(full.graph.num_nodes(), 19767u);
  EXPECT_EQ(full.graph.num_edges(), 94946u);
  EXPECT_EQ(edge_list_fnv1a(full.graph), 15754393283774455134ull);

  const std::vector<NodeId> kept = connected_components(full.graph).largest();
  const Graph lc = largest_component(full.graph);
  EXPECT_EQ(lc.num_nodes(), 19756u);
  EXPECT_EQ(lc.num_edges(), 94931u);
  EXPECT_EQ(edge_list_fnv1a(lc), 6593948663709860966ull);

  const GeometricGraph glc = largest_component(full);
  ASSERT_EQ(glc.graph.num_nodes(), lc.num_nodes());
  EXPECT_EQ(glc.graph.num_edges(), lc.num_edges());
  EXPECT_EQ(edge_list_fnv1a(glc.graph), edge_list_fnv1a(lc));
  ASSERT_EQ(glc.points.size(), kept.size());
  for (NodeId i = 0; i < kept.size(); ++i) {
    const auto got = glc.points.point(i);
    const auto want = full.points.point(kept[i]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end())) << i;
  }
}

TEST(DoublingDimension, MonotoneInDim) {
  EXPECT_LT(doubling_dimension_estimate(MetricKind::L2, 1),
            doubling_dimension_estimate(MetricKind::L2, 3));
  EXPECT_DOUBLE_EQ(doubling_dimension_estimate(MetricKind::LInf, 2), 2.0);
}

}  // namespace
}  // namespace remspan
