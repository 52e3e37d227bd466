// Unit ball graph construction: nodes = points, edge iff metric distance
// <= radius. Grid bucketing keeps construction near-linear in the output
// size even for the dense fixed-square Poisson instances of Section 3.2:
// point ids are ordered by cell (cells of side radius), so each cell is a
// contiguous run; each cell's 3^dim neighbor cells are resolved once; and
// blocks of that order are swept on the global thread pool, twice: once to
// count each point a's partners b > a, once to write them, sorted, into
// a's slice of the canonical edge list. No hashing, no per-lookup
// allocation, no edge sort; the output is the same for any thread count.
#pragma once

#include "geom/points.hpp"
#include "graph/graph.hpp"

namespace remspan {

/// Geometric graph bundled with its geometry; the weighted baselines
/// (known-distance spanners of Table 1) need the coordinates back.
struct GeometricGraph {
  Graph graph;
  PointSet points;
  MetricKind metric = MetricKind::L2;
  double radius = 1.0;

  /// Metric length of an edge.
  [[nodiscard]] double edge_length(const Edge& e) const {
    return metric_distance(metric, points.point(e.u), points.point(e.v));
  }
};

/// Builds the unit ball graph of the given point cloud. Every coordinate
/// must be finite with |x / radius| < 2^52 (cell coordinates stay exact
/// integers); a violation throws CheckError. Publishes the
/// `geom.pair_tests` counter when a metrics sink is installed.
[[nodiscard]] GeometricGraph unit_ball_graph(PointSet points, MetricKind metric = MetricKind::L2,
                                             double radius = 1.0);

/// Paper model, one call: Poisson(mean_nodes) points in [0, side]^2, unit
/// disk edges.
[[nodiscard]] GeometricGraph random_unit_disk_graph(double side, double mean_nodes, Rng& rng);

/// Exactly n uniform points in [0, side]^dim, unit balls of the metric.
[[nodiscard]] GeometricGraph uniform_unit_ball_graph(std::size_t n, double side, std::size_t dim,
                                                     Rng& rng, MetricKind metric = MetricKind::L2);

/// Geometry-preserving overload of largest_component (graph/connectivity.hpp):
/// restricts graph AND coordinates to the largest connected component so the
/// weighted baselines keep matching point data.
[[nodiscard]] GeometricGraph largest_component(GeometricGraph gg);

}  // namespace remspan
