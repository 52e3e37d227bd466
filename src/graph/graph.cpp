#include "graph/graph.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

namespace {

/// Edges per parallel range: a list shorter than two ranges' worth is
/// checked and filled by one range, inline on the caller, so small graphs
/// (a service tenant's snapshot) pay no dispatch.
constexpr std::size_t kEdgesPerRange = std::size_t{1} << 16;

/// Ranges for a list of `edges`: at most the pool's size, so the caller and
/// its helpers run one range per hardware thread.
std::size_t range_count(std::size_t edges) {
  if (edges < 2 * kEdgesPerRange) return 1;
  return std::min(edges / kEdgesPerRange, ThreadPool::global().size());
}

/// Whether every edge is strictly greater than the one before it, checked
/// over index chunks on the pool.
bool strictly_increasing(const std::vector<Edge>& edges) {
  const std::size_t m = edges.size();
  const std::size_t ranges = range_count(m);
  std::vector<char> ok(ranges, 1);
  ThreadPool::global().parallel_for(0, ranges, [&](std::size_t r) {
    const std::size_t hi = m * (r + 1) / ranges;
    for (std::size_t i = std::max<std::size_t>(1, m * r / ranges); i < hi; ++i) {
      if (!(edges[i - 1] < edges[i])) {
        ok[r] = 0;
        return;
      }
    }
  });
  return std::find(ok.begin(), ok.end(), 0) == ok.end();
}

}  // namespace

namespace detail {

void check_graph_limits(std::size_t nodes, std::size_t edges) {
  REMSPAN_CHECK(nodes < kInvalidNode);
  REMSPAN_CHECK(edges < kInvalidEdge);
}

void canonicalize(std::vector<Edge>& edges) {
  if (strictly_increasing(edges)) return;
  std::sort(edges.begin(), edges.end());  // Edge orders lexicographically: canonical order
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

}  // namespace detail

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::reserve(std::size_t edges) { edges_.reserve(edges); }

void GraphBuilder::add_edge(NodeId a, NodeId b) {
  REMSPAN_CHECK(a != b);
  REMSPAN_CHECK(a < num_nodes_ && b < num_nodes_);
  edges_.push_back(make_edge(a, b));
}

Graph GraphBuilder::build() const {
  std::vector<Edge> edges = edges_;
  detail::canonicalize(edges);
  return Graph::from_canonical_edges(num_nodes_, std::move(edges));
}

Graph Graph::from_canonical_edges(NodeId num_nodes, std::vector<Edge> edges) {
  obs::PhaseSpan span("graph.from_canonical_edges", "graph");
  detail::check_graph_limits(num_nodes, edges.size());
  Graph g;
  g.edges_ = std::move(edges);
  const std::vector<Edge>& es = g.edges_;
  const std::size_t n = num_nodes;
  const std::size_t m = es.size();
  const std::size_t ranges = range_count(m);
  ThreadPool& pool = ThreadPool::global();

  // Pass 1, per range of n / ranges rows: validate the range's share of the
  // list, then scan the whole list counting the entries of its own rows, so
  // no two ranges write one count.
  g.offsets_.assign(n + 1, 0);
  pool.parallel_for(0, ranges, [&](std::size_t r) {
    const std::size_t hi = m * (r + 1) / ranges;
    for (std::size_t i = m * r / ranges; i < hi; ++i) {
      // The contract requires the list sorted and deduplicated; row
      // sortedness and the row split below depend on it, so enforce rather
      // than assume.
      REMSPAN_CHECK(es[i].u < es[i].v && es[i].v < num_nodes);
      REMSPAN_CHECK(i == 0 || es[i - 1] < es[i]);
    }
    const std::size_t lo_row = n * r / ranges;
    const std::size_t rows = n * (r + 1) / ranges - lo_row;
    for (const Edge& e : es) {
      if (e.u - lo_row < rows) ++g.offsets_[e.u];
      if (e.v - lo_row < rows) ++g.offsets_[e.v];
    }
  });

  // Counts become row ends: offsets_[x] = one past row x's last slot.
  std::size_t end = 0;
  for (std::size_t x = 0; x < n; ++x) {
    g.max_degree_ = std::max(g.max_degree_, static_cast<Dist>(g.offsets_[x]));
    end += g.offsets_[x];
    g.offsets_[x] = end;
  }
  g.offsets_[n] = end;

  // Pass 2, over row ranges of about 2m / ranges slots each: range r owns
  // rows [row[r], row[r + 1]) and scans every edge with u below its last
  // row, backwards, so each row fills from its end down to its start. A
  // row's incident edges in descending id are its forward edges (x, w), w
  // descending, then its backward edges (u, x), u descending (u < x puts
  // those first in the canonical order); so every row ends sorted by
  // neighbor, with the ids of one forward scan, and offsets_[x] ends at row
  // x's start. Only range r writes its rows' slots and offsets.
  std::vector<NodeId> row(ranges + 1, num_nodes);
  row[0] = 0;
  for (std::size_t r = 1; r < ranges; ++r) {
    row[r] = static_cast<NodeId>(
        std::lower_bound(g.offsets_.begin(), g.offsets_.end() - 1, 2 * m * r / ranges) -
        g.offsets_.begin());
  }
  g.adj_.resize(2 * m);
  g.adj_edge_ids_.resize(2 * m);
  pool.parallel_for(0, ranges, [&](std::size_t r) {
    const NodeId lo_row = row[r];
    const NodeId hi_row = row[r + 1];
    const auto below = std::partition_point(es.begin(), es.end(),
                                            [&](const Edge& e) { return e.u < hi_row; });
    const auto place = [&](NodeId x, NodeId neighbor, std::size_t id) {
      const std::size_t slot = --g.offsets_[x];
      g.adj_[slot] = neighbor;
      g.adj_edge_ids_[slot] = static_cast<EdgeId>(id);
    };
    for (auto i = static_cast<std::size_t>(below - es.begin()); i-- > 0;) {
      const Edge e = es[i];
      if (e.u >= lo_row) place(e.u, e.v, i);
      if (e.v >= lo_row && e.v < hi_row) place(e.v, e.u, i);
    }
  });
  obs::count("graph.csr_bytes", g.offsets_.size() * sizeof(std::size_t) +
                                    g.adj_.size() * sizeof(NodeId) +
                                    g.adj_edge_ids_.size() * sizeof(EdgeId));
  return g;
}

EdgeId Graph::find_edge(NodeId a, NodeId b) const noexcept {
  if (a >= num_nodes() || b >= num_nodes() || a == b) return kInvalidEdge;
  // Search the smaller adjacency row.
  if (degree(a) > degree(b)) std::swap(a, b);
  const auto nbrs = neighbors(a);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
  if (it == nbrs.end() || *it != b) return kInvalidEdge;
  const auto slot = static_cast<std::size_t>(it - nbrs.begin());
  return incident_edges(a)[slot];
}

}  // namespace remspan
