#include "dynamic/churn_trace.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>

#include "util/strnum.hpp"

namespace remspan {

namespace {

[[nodiscard]] std::uint64_t pack(NodeId a, NodeId b) noexcept {
  const Edge e = make_edge(a, b);
  return (std::uint64_t{e.u} << 32) | e.v;
}

/// Per-dimension bounding box of a point cloud — the deployment area the
/// mobility and outage models draw from.
struct BoundingBox {
  std::vector<double> lo;
  std::vector<double> hi;
};

[[nodiscard]] BoundingBox bounding_box(const PointSet& points) {
  REMSPAN_CHECK(points.size() > 0);
  BoundingBox box;
  box.lo.assign(points.dim(), 0.0);
  box.hi.assign(points.dim(), 0.0);
  for (std::size_t d = 0; d < points.dim(); ++d) {
    box.lo[d] = box.hi[d] = points.point(0)[d];
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    const auto p = points.point(i);
    for (std::size_t d = 0; d < points.dim(); ++d) {
      box.lo[d] = std::min(box.lo[d], p[d]);
      box.hi[d] = std::max(box.hi[d], p[d]);
    }
  }
  return box;
}

}  // namespace

Graph ChurnTrace::initial_graph() const {
  GraphBuilder builder(num_nodes);
  builder.reserve(initial_edges.size());
  for (const Edge& e : initial_edges) builder.add_edge(e.u, e.v);
  return builder.build();
}

void write_churn_trace(std::ostream& out, const ChurnTrace& trace) {
  out << "churntrace 1\n";
  out << "nodes " << trace.num_nodes << "\n";
  out << "edges " << trace.initial_edges.size() << "\n";
  for (const Edge& e : trace.initial_edges) out << e.u << " " << e.v << "\n";
  out << "batches " << trace.batches.size() << "\n";
  for (const auto& batch : trace.batches) {
    out << "batch " << batch.size() << "\n";
    for (const GraphEvent& ev : batch) {
      switch (ev.kind) {
        case GraphEventKind::kEdgeUp:
          out << "e+ " << ev.u << " " << ev.v << "\n";
          break;
        case GraphEventKind::kEdgeDown:
          out << "e- " << ev.u << " " << ev.v << "\n";
          break;
        case GraphEventKind::kNodeUp:
          out << "n+ " << ev.u << "\n";
          break;
        case GraphEventKind::kNodeDown:
          out << "n- " << ev.u << "\n";
          break;
      }
    }
  }
}

namespace {

/// Line-oriented reader of the churn-trace text: every record is one line
/// of blank-separated tokens, each parsed whole through util/strnum, so a
/// sign, a suffix or an extra token is an error naming its line.
class TraceLines {
 public:
  explicit TraceLines(std::istream& in) : in_(in) {}

  /// The next non-blank line's tokens; `what` names the expected record.
  std::vector<std::string_view> next(const char* what) {
    while (std::getline(in_, line_)) {
      ++line_no_;
      std::vector<std::string_view> tokens = split_tokens(line_);
      if (!tokens.empty()) return tokens;
    }
    fail(std::string("expected ") + what + ", got the end of the trace");
  }

  /// A `<tag> <count>` line.
  std::uint64_t tagged_count(const char* tag) {
    const auto tokens = next(tag);
    if (tokens.size() != 2 || tokens[0] != tag) fail(std::string("expected '") + tag + " <count>'");
    return number(tokens[1], std::numeric_limits<std::uint64_t>::max());
  }

  std::uint64_t number(std::string_view token, std::uint64_t max) {
    const auto parsed = parse_full_uint(token, max);
    if (!parsed) {
      std::string what(token);
      what += " is not a count or node id up to ";
      what += std::to_string(max);
      fail(what);
    }
    return *parsed;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw CheckError("read_churn_trace: line " + std::to_string(line_no_) + ": " + what);
  }

 private:
  std::istream& in_;
  std::string line_;
  std::size_t line_no_ = 0;
};

}  // namespace

ChurnTrace read_churn_trace(std::istream& in) {
  TraceLines lines(in);
  ChurnTrace trace;
  const auto header = lines.next("the header 'churntrace 1'");
  if (header.size() != 2 || header[0] != "churntrace" || header[1] != "1") {
    lines.fail("expected the header 'churntrace 1'");
  }
  // The node count sizes the replay's graph and DynamicGraph: check it
  // against the id limit and the machine's memory before anything does.
  const std::uint64_t nodes = lines.tagged_count("nodes");
  try {
    detail::check_node_budget(nodes, DynamicGraph::kBytesPerNode + sizeof(std::size_t),
                              "per-node state");
  } catch (const CheckError& e) {
    lines.fail(e.what());
  }
  trace.num_nodes = static_cast<NodeId>(nodes);
  const NodeId max_id = trace.num_nodes == 0 ? 0 : trace.num_nodes - 1;
  const auto node = [&](std::string_view token) {
    if (trace.num_nodes == 0) lines.fail("node id with 'nodes 0'");
    return static_cast<NodeId>(lines.number(token, max_id));
  };
  // Declared counts are untrusted: the vectors grow as entries are read, so
  // an oversized count ends in a CheckError at the short stream instead of
  // a huge up-front allocation.
  const std::uint64_t num_edges = lines.tagged_count("edges");
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    const auto tokens = lines.next("an edge '<u> <v>'");
    if (tokens.size() != 2) lines.fail("expected an edge '<u> <v>'");
    const NodeId u = node(tokens[0]);
    const NodeId v = node(tokens[1]);
    if (u == v) lines.fail("self-loop at node " + std::to_string(u));
    trace.initial_edges.push_back(make_edge(u, v));
  }
  const std::uint64_t num_batches = lines.tagged_count("batches");
  for (std::uint64_t b = 0; b < num_batches; ++b) {
    const std::uint64_t num_events = lines.tagged_count("batch");
    std::vector<GraphEvent>& batch = trace.batches.emplace_back();
    for (std::uint64_t i = 0; i < num_events; ++i) {
      const auto tokens = lines.next("an event");
      const std::string_view op = tokens[0];
      if ((op == "n+" || op == "n-") && tokens.size() == 2) {
        const NodeId u = node(tokens[1]);
        batch.push_back(op == "n+" ? GraphEvent::node_up(u) : GraphEvent::node_down(u));
      } else if ((op == "e+" || op == "e-") && tokens.size() == 3) {
        const NodeId u = node(tokens[1]);
        const NodeId v = node(tokens[2]);
        if (u == v) lines.fail("self-loop at node " + std::to_string(u));
        batch.push_back(op == "e+" ? GraphEvent::edge_up(u, v) : GraphEvent::edge_down(u, v));
      } else {
        lines.fail("expected an event 'e+ <u> <v>', 'e- <u> <v>', 'n+ <u>' or 'n- <u>'");
      }
    }
  }
  return trace;
}

ChurnTrace random_edge_churn_trace(const Graph& g, std::size_t num_batches,
                                   std::size_t events_per_batch, double node_event_fraction,
                                   std::uint64_t seed) {
  REMSPAN_CHECK(g.num_edges() > 0);
  REMSPAN_CHECK(node_event_fraction >= 0.0 && node_event_fraction <= 1.0);
  Rng rng(seed);
  ChurnTrace trace;
  trace.num_nodes = g.num_nodes();
  trace.initial_edges.assign(g.edges().begin(), g.edges().end());
  trace.batches.resize(num_batches);

  std::unordered_set<std::uint64_t> down_edges;
  std::vector<std::uint8_t> up(g.num_nodes(), 1);
  for (auto& batch : trace.batches) {
    batch.reserve(events_per_batch);
    for (std::size_t i = 0; i < events_per_batch; ++i) {
      if (rng.bernoulli(node_event_fraction)) {
        const auto v = static_cast<NodeId>(rng.uniform(g.num_nodes()));
        batch.push_back(up[v] != 0 ? GraphEvent::node_down(v) : GraphEvent::node_up(v));
        up[v] ^= 1;
        continue;
      }
      const Edge e = trace.initial_edges[rng.uniform(trace.initial_edges.size())];
      const std::uint64_t key = pack(e.u, e.v);
      if (down_edges.erase(key) > 0) {
        batch.push_back(GraphEvent::edge_up(e.u, e.v));
      } else {
        down_edges.insert(key);
        batch.push_back(GraphEvent::edge_down(e.u, e.v));
      }
    }
  }
  return trace;
}

ChurnTrace mobility_churn_trace(const GeometricGraph& gg, std::size_t num_batches,
                                std::size_t movers_per_batch, std::uint64_t seed) {
  const NodeId n = gg.graph.num_nodes();
  REMSPAN_CHECK(n >= 2 && movers_per_batch >= 1);
  Rng rng(seed);
  ChurnTrace trace;
  trace.num_nodes = n;
  trace.initial_edges.assign(gg.graph.edges().begin(), gg.graph.edges().end());
  trace.batches.resize(num_batches);

  const BoundingBox box = bounding_box(gg.points);
  const std::size_t dim = gg.points.dim();
  std::vector<double> coords(static_cast<std::size_t>(n) * dim);
  for (NodeId v = 0; v < n; ++v) {
    const auto p = gg.points.point(v);
    std::copy(p.begin(), p.end(), coords.begin() + static_cast<std::size_t>(v) * dim);
  }
  const auto point_of = [&](NodeId v) {
    return std::span<const double>{coords.data() + static_cast<std::size_t>(v) * dim, dim};
  };

  std::unordered_set<std::uint64_t> live;
  live.reserve(gg.graph.num_edges() * 2);
  for (const Edge& e : gg.graph.edges()) live.insert(pack(e.u, e.v));

  for (auto& batch : trace.batches) {
    auto movers = rng.sample_without_replacement(n, std::min<std::uint64_t>(movers_per_batch, n));
    std::sort(movers.begin(), movers.end());
    for (const std::uint64_t m : movers) {
      for (std::size_t d = 0; d < dim; ++d) {
        coords[m * dim + d] = rng.uniform_real(box.lo[d], box.hi[d]);
      }
    }
    // Re-derive every mover's unit ball against the post-move positions.
    // Movers are processed in id order and the live set is updated as
    // events are emitted, so shared mover-mover edges appear exactly once.
    for (const std::uint64_t m : movers) {
      const auto v = static_cast<NodeId>(m);
      for (NodeId w = 0; w < n; ++w) {
        if (w == v) continue;
        const bool should =
            metric_distance(gg.metric, point_of(v), point_of(w)) <= gg.radius;
        const std::uint64_t key = pack(v, w);
        if (should && live.insert(key).second) {
          batch.push_back(GraphEvent::edge_up(v, w));
        } else if (!should && live.erase(key) > 0) {
          batch.push_back(GraphEvent::edge_down(v, w));
        }
      }
    }
  }
  return trace;
}

ChurnTrace region_outage_trace(const GeometricGraph& gg, std::size_t num_outages,
                               double region_radius, std::uint64_t seed) {
  const NodeId n = gg.graph.num_nodes();
  REMSPAN_CHECK(n >= 2 && region_radius > 0.0);
  Rng rng(seed);
  ChurnTrace trace;
  trace.num_nodes = n;
  trace.initial_edges.assign(gg.graph.edges().begin(), gg.graph.edges().end());
  trace.batches.reserve(2 * num_outages);

  const BoundingBox box = bounding_box(gg.points);
  const std::size_t dim = gg.points.dim();
  std::vector<double> center(dim, 0.0);
  std::vector<std::uint8_t> in_region(n, 0);
  for (std::size_t o = 0; o < num_outages; ++o) {
    for (std::size_t d = 0; d < dim; ++d) {
      center[d] = rng.uniform_real(box.lo[d], box.hi[d]);
    }
    for (NodeId v = 0; v < n; ++v) {
      in_region[v] =
          metric_distance(gg.metric, {center.data(), dim}, gg.points.point(v)) <= region_radius
              ? 1
              : 0;
    }
    std::vector<GraphEvent> outage;
    std::vector<GraphEvent> recovery;
    for (const Edge& e : gg.graph.edges()) {
      if (in_region[e.u] != 0 && in_region[e.v] != 0) {
        outage.push_back(GraphEvent::edge_down(e.u, e.v));
        recovery.push_back(GraphEvent::edge_up(e.u, e.v));
      }
    }
    trace.batches.push_back(std::move(outage));
    trace.batches.push_back(std::move(recovery));
  }
  return trace;
}

}  // namespace remspan
