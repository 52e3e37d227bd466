#include "graph/graph.hpp"

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <string>

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

std::size_t physical_memory_bytes() noexcept {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_size <= 0) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(pages) * static_cast<std::size_t>(page_size);
}

void check_node_budget(std::size_t nodes, std::size_t bytes_per_node, const char* what) {
  try {
    check_graph_limits(nodes, 0);
  } catch (const CheckError&) {
    throw CheckError("n = " + std::to_string(nodes) + " is over the node-id limit");
  }
  const std::size_t bytes = (nodes + 1) * bytes_per_node;
  const std::size_t physical = physical_memory_bytes();
  if (bytes > physical) {
    throw CheckError("n = " + std::to_string(nodes) + " needs " + std::to_string(bytes) +
                     " bytes of " + what + ", more than the machine's " +
                     std::to_string(physical) + " bytes of physical memory");
  }
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

/// The one contiguous CSR a from_canonical_edges graph reads.
struct Graph::Store {
  std::vector<std::size_t> offsets;
  std::vector<NodeId, detail::FillAllocator<NodeId>> adj;
  std::vector<EdgeId, detail::FillAllocator<EdgeId>> ids;
  std::vector<Edge> edges;
};

Graph Graph::from_canonical_edges(NodeId num_nodes, std::vector<Edge> edges) {
  obs::PhaseSpan span("graph.from_canonical_edges", "graph");
  detail::check_graph_limits(num_nodes, edges.size());
  Graph g;
  auto store = std::make_shared<Store>();
  Store& st = *store;
  st.edges = std::move(edges);
  const std::vector<Edge>& es = st.edges;
  const std::size_t n = num_nodes;
  const std::size_t m = es.size();
  const std::size_t ranges = range_count(m);
  ThreadPool& pool = ThreadPool::global();

  // Pass 1, per range of n / ranges rows: validate the range's share of the
  // list, then scan the whole list counting the entries of its own rows, so
  // no two ranges write one count.
  st.offsets.assign(n + 1, 0);
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
      if (e.u - lo_row < rows) ++st.offsets[e.u];
      if (e.v - lo_row < rows) ++st.offsets[e.v];
    }
  });

  // Counts become row ends: offsets[x] = one past row x's last slot.
  std::size_t end = 0;
  for (std::size_t x = 0; x < n; ++x) {
    g.max_degree_ = std::max(g.max_degree_, static_cast<Dist>(st.offsets[x]));
    end += st.offsets[x];
    st.offsets[x] = end;
  }
  st.offsets[n] = end;

  // Pass 2, over row ranges of about 2m / ranges slots each: range r owns
  // rows [row[r], row[r + 1]) and scans every edge with u below its last
  // row, backwards, so each row fills from its end down to its start. A
  // row's incident edges in descending id are its forward edges (x, w), w
  // descending, then its backward edges (u, x), u descending (u < x puts
  // those first in the canonical order); so every row ends sorted by
  // neighbor, with the ids of one forward scan, and offsets[x] ends at row
  // x's start. Only range r writes its rows' slots and offsets.
  std::vector<NodeId> row(ranges + 1, num_nodes);
  row[0] = 0;
  for (std::size_t r = 1; r < ranges; ++r) {
    row[r] = static_cast<NodeId>(
        std::lower_bound(st.offsets.begin(), st.offsets.end() - 1, 2 * m * r / ranges) -
        st.offsets.begin());
  }
  st.adj.resize(2 * m);
  st.ids.resize(2 * m);
  pool.parallel_for(0, ranges, [&](std::size_t r) {
    const NodeId lo_row = row[r];
    const NodeId hi_row = row[r + 1];
    const auto below = std::partition_point(es.begin(), es.end(),
                                            [&](const Edge& e) { return e.u < hi_row; });
    const auto place = [&](NodeId x, NodeId neighbor, std::size_t id) {
      const std::size_t slot = --st.offsets[x];
      st.adj[slot] = neighbor;
      st.ids[slot] = static_cast<EdgeId>(id);
    };
    for (auto i = static_cast<std::size_t>(below - es.begin()); i-- > 0;) {
      const Edge e = es[i];
      if (e.u >= lo_row) place(e.u, e.v, i);
      if (e.v >= lo_row && e.v < hi_row) place(e.v, e.u, i);
    }
  });
  obs::count("graph.csr_bytes", st.offsets.size() * sizeof(std::size_t) +
                                    st.adj.size() * sizeof(NodeId) +
                                    st.ids.size() * sizeof(EdgeId));
  g.num_nodes_ = num_nodes;
  g.num_edges_ = m;
  g.edge_id_bound_ = m;
  g.base_ = std::move(store);
  g.index_base();
  return g;
}

void Graph::index_base() {
  const Store& st = *base_;
  rows_.resize((std::size_t{num_nodes_} + kRowBlockRows - 1) >> kRowBlockShift);
  for (std::size_t b = 0; b < rows_.size(); ++b) {
    rows_[b] = RowBlock{st.offsets.data() + (b << kRowBlockShift), st.adj.data(), st.ids.data()};
  }
  slots_.resize((st.edges.size() + kSlotBlockSlots - 1) >> kSlotBlockShift);
  for (std::size_t j = 0; j < slots_.size(); ++j) {
    slots_[j] = st.edges.data() + (j << kSlotBlockShift);
  }
  base_edges_ = st.edges.data();
  canonical_ = true;
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for_each_edge([&](const Edge& e, EdgeId /*id*/) { out.push_back(e); });
  return out;
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
