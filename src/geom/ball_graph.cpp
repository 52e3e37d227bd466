#include "geom/ball_graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/connectivity.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

namespace {

/// Bound on |x / radius|: cell coordinates stay exact integers in a double,
/// so floor() and the ±1 neighbor offsets are well-defined in int64.
constexpr double kMaxCellCoord = 4503599627370496.0;  // 2^52

/// Points (in cell order) swept per pool task.
constexpr std::size_t kSweepBlock = 2048;

/// The point cloud bucketed into cells of side `radius`, held as
/// contiguous runs of a cell-sorted point order. Every candidate neighbor
/// of a point lies in one of the 3^dim cells adjacent to its own (under any
/// supported norm, points at distance <= radius differ by <= radius per
/// coordinate), and those cells are resolved once per cell, not per point.
struct CellGrid {
  std::size_t dim = 0;
  /// Point ids sorted by (cell, id): each cell is a run of ascending ids.
  std::vector<NodeId> order;
  /// Coordinates in `order`, so a cell scan reads contiguous memory.
  std::vector<double> coords;
  /// Cell c holds positions [cell_begin[c], cell_begin[c + 1]) of `order`.
  std::vector<std::uint32_t> cell_begin;
  /// Cell c's non-empty neighbor cells, itself included:
  /// nbrs[nbr_begin[c] .. nbr_begin[c + 1]).
  std::vector<std::uint32_t> nbr_begin;
  std::vector<std::uint32_t> nbrs;

  [[nodiscard]] std::span<const double> coord(std::size_t pos) const {
    return {coords.data() + pos * dim, dim};
  }
};

/// The ids 0..n-1 sorted by `less` (a strict total order): one sorted run
/// per pool worker, then rounds of pairwise merges between two buffers.
/// Runs hold at least 4096 ids; below that one caller-side sort is cheaper
/// than waking the pool.
template <typename Less>
std::vector<NodeId> parallel_sorted_ids(std::size_t n, const Less& less) {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t runs = std::min(pool.concurrency(), std::max<std::size_t>(1, n / 4096));
  std::vector<std::size_t> bound(runs + 1);
  for (std::size_t r = 0; r <= runs; ++r) bound[r] = n * r / runs;
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  const auto at = [](std::vector<NodeId>& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  pool.parallel_for(
      0, runs, [&](std::size_t r) { std::sort(at(ids, bound[r]), at(ids, bound[r + 1]), less); },
      1);
  std::vector<NodeId> merged(runs > 1 ? n : 0);
  for (std::size_t width = 1; width < runs; width *= 2) {
    pool.parallel_for(
        0, (runs + 2 * width - 1) / (2 * width),
        [&](std::size_t pair) {
          const std::size_t lo = bound[2 * pair * width];
          const std::size_t mid = bound[std::min(runs, (2 * pair + 1) * width)];
          const std::size_t hi = bound[std::min(runs, (2 * pair + 2) * width)];
          std::merge(at(ids, lo), at(ids, mid), at(ids, mid), at(ids, hi), at(merged, lo), less);
        },
        1);
    ids.swap(merged);
  }
  return ids;
}

CellGrid bucket(const PointSet& points, double radius) {
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  CellGrid grid;
  grid.dim = dim;

  std::vector<std::int64_t> cells;  // one key per cell, ascending
  {
    std::vector<std::int64_t> cell(n * dim);  // each point's key
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = points.point(i);
      for (std::size_t k = 0; k < dim; ++k) {
        const double x = p[k] / radius;
        REMSPAN_CHECK(std::isfinite(p[k]) && std::abs(x) < kMaxCellCoord);
        cell[i * dim + k] = static_cast<std::int64_t>(std::floor(x));
      }
    }
    const auto key = [&](NodeId i) { return cell.data() + i * dim; };
    grid.order = parallel_sorted_ids(n, [&](NodeId a, NodeId b) {
      const std::int64_t* ka = key(a);
      const std::int64_t* kb = key(b);
      for (std::size_t k = 0; k < dim; ++k) {
        if (ka[k] != kb[k]) return ka[k] < kb[k];
      }
      return a < b;
    });

    // Runs of equal keys become cells.
    grid.coords.resize(n * dim);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const NodeId i = grid.order[pos];
      if (pos == 0 || !std::equal(key(i), key(i) + dim, key(grid.order[pos - 1]))) {
        grid.cell_begin.push_back(static_cast<std::uint32_t>(pos));
        cells.insert(cells.end(), key(i), key(i) + dim);
      }
      const auto p = points.point(i);
      std::copy(p.begin(), p.end(), grid.coords.begin() + static_cast<std::ptrdiff_t>(pos * dim));
    }
  }
  const std::size_t num_cells = grid.cell_begin.size();
  grid.cell_begin.push_back(static_cast<std::uint32_t>(n));

  // Neighbor resolution: for a fixed offset o, cell + o is monotone in the
  // cell order, so one cursor per offset walks the cell list once.
  std::size_t num_offsets = 1;
  for (std::size_t k = 0; k < dim; ++k) num_offsets *= 3;
  std::vector<std::int64_t> offsets(num_offsets * dim);
  for (std::size_t o = 0; o < num_offsets; ++o) {
    std::size_t digits = o;
    for (std::size_t k = 0; k < dim; ++k, digits /= 3) {
      offsets[o * dim + k] = static_cast<std::int64_t>(digits % 3) - 1;
    }
  }
  // Three-way comparison of cells[j] against cells[c] + offsets[o].
  const auto compare = [&](std::size_t j, std::size_t c, std::size_t o) {
    for (std::size_t k = 0; k < dim; ++k) {
      const std::int64_t want = cells[c * dim + k] + offsets[o * dim + k];
      if (cells[j * dim + k] != want) return cells[j * dim + k] < want ? -1 : 1;
    }
    return 0;
  };
  std::vector<std::size_t> cursor(num_offsets, 0);
  grid.nbr_begin.reserve(num_cells + 1);
  for (std::size_t c = 0; c < num_cells; ++c) {
    grid.nbr_begin.push_back(static_cast<std::uint32_t>(grid.nbrs.size()));
    for (std::size_t o = 0; o < num_offsets; ++o) {
      std::size_t& j = cursor[o];
      while (j < num_cells && compare(j, c, o) < 0) ++j;
      if (j < num_cells && compare(j, c, o) == 0) {
        grid.nbrs.push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  grid.nbr_begin.push_back(static_cast<std::uint32_t>(grid.nbrs.size()));
  return grid;
}

/// The canonical edge list of the unit ball graph: every (a, b), a < b,
/// with metric_distance(metric, a, b) <= radius, in (a, b) order.
std::vector<Edge> ball_edges(const PointSet& points, MetricKind metric, double radius) {
  const std::size_t n = points.size();
  const CellGrid grid = bucket(points, radius);

  // Sweep the cell order in blocks on the pool, so each cell's neighbor
  // cells are read from nearby memory. visit(a, partners) receives, for
  // every point a, each b > a of its neighbor cells within the radius.
  // Sorted, a's partners are exactly the canonical edges (a, *), so a
  // counting pass sizes each point's slice of the edge list and a writing
  // pass fills it: one exact allocation, no edge sort, and no worker
  // allocates edge storage.
  const std::size_t num_blocks = (n + kSweepBlock - 1) / kSweepBlock;
  const auto sweep = [&](std::size_t blk, auto&& visit) {
    // The block's cells are those whose run starts in its position range.
    const auto first_cell = [&](std::size_t pos) {
      return static_cast<std::size_t>(
          std::lower_bound(grid.cell_begin.begin(), grid.cell_begin.end() - 1, pos) -
          grid.cell_begin.begin());
    };
    std::vector<NodeId> partners;
    std::uint64_t tests = 0;
    const std::size_t last = first_cell(std::min(n, (blk + 1) * kSweepBlock));
    for (std::size_t c = first_cell(blk * kSweepBlock); c < last; ++c) {
      for (std::uint32_t pos = grid.cell_begin[c]; pos < grid.cell_begin[c + 1]; ++pos) {
        const NodeId a = grid.order[pos];
        const auto pa = grid.coord(pos);
        partners.clear();
        for (std::uint32_t x = grid.nbr_begin[c]; x < grid.nbr_begin[c + 1]; ++x) {
          const std::uint32_t nc = grid.nbrs[x];
          for (std::uint32_t q = grid.cell_begin[nc]; q < grid.cell_begin[nc + 1]; ++q) {
            const NodeId b = grid.order[q];
            if (b <= a) continue;  // each unordered pair once
            ++tests;
            if (metric_distance(metric, pa, grid.coord(q)) <= radius) partners.push_back(b);
          }
        }
        visit(a, partners);
      }
    }
    return tests;
  };
  // first[a] = index of a's first edge; counted, then prefix-summed.
  std::vector<std::uint32_t> first(n + 1, 0);
  std::vector<std::uint64_t> block_tests(num_blocks, 0);  // over both passes
  ThreadPool::global().parallel_for(
      0, num_blocks,
      [&](std::size_t blk) {
        block_tests[blk] = sweep(blk, [&](NodeId a, const std::vector<NodeId>& partners) {
          first[a + 1] = static_cast<std::uint32_t>(partners.size());
        });
      },
      1);
  std::uint64_t num_edges = 0;
  for (std::size_t a = 1; a <= n; ++a) num_edges += first[a];
  detail::check_graph_limits(n, num_edges);  // offsets below fit 32 bits
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<Edge> edges(num_edges);
  ThreadPool::global().parallel_for(
      0, num_blocks,
      [&](std::size_t blk) {
        block_tests[blk] += sweep(blk, [&](NodeId a, std::vector<NodeId>& partners) {
          std::sort(partners.begin(), partners.end());
          Edge* out = edges.data() + first[a];
          for (const NodeId b : partners) *out++ = Edge{a, b};
        });
      },
      1);
  obs::count("geom.pair_tests", std::accumulate(block_tests.begin(), block_tests.end(),
                                                std::uint64_t{0}));
  return edges;
}

}  // namespace

GeometricGraph unit_ball_graph(PointSet points, MetricKind metric, double radius) {
  obs::PhaseSpan span("geom.unit_ball_graph", "geom");
  REMSPAN_CHECK(radius > 0);
  const std::size_t n = points.size();
  detail::check_graph_limits(n, 0);
  Graph graph =
      Graph::from_canonical_edges(static_cast<NodeId>(n), ball_edges(points, metric, radius));
  return GeometricGraph{std::move(graph), std::move(points), metric, radius};
}

GeometricGraph random_unit_disk_graph(double side, double mean_nodes, Rng& rng) {
  return unit_ball_graph(poisson_points_in_square(side, mean_nodes, rng), MetricKind::L2, 1.0);
}

GeometricGraph uniform_unit_ball_graph(std::size_t n, double side, std::size_t dim, Rng& rng,
                                       MetricKind metric) {
  return unit_ball_graph(uniform_points(n, side, dim, rng), metric, 1.0);
}

GeometricGraph largest_component(GeometricGraph gg) {
  obs::PhaseSpan span("geom.largest_component", "geom");
  const auto comps = connected_components(gg.graph);
  if (comps.count <= 1) return gg;
  auto sub = induced_subgraph(gg.graph, comps.largest());
  PointSet pts(gg.points.dim());
  for (const NodeId old : sub.original_id) pts.add(gg.points.point(old));
  gg.graph = std::move(sub.graph);
  gg.points = std::move(pts);
  return gg;
}

}  // namespace remspan
