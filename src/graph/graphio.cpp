#include "graph/graphio.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "n " << g.num_nodes() << '\n';
  g.for_each_edge([&](const Edge& e, EdgeId /*id*/) { out << e.u << ' ' << e.v << '\n'; });
}

namespace {

/// Bytes read from the stream per block: the only copy of the text the
/// reader holds, plus the unfinished line carried into the next block.
/// Untouched bytes of the buffer are never written (FillAllocator), and a
/// stream that reports its size gets a buffer no larger: a full block freed
/// after each small load kept about 4 MB more memory resident in a process
/// loading many small graphs (perfbench serve-openloop).
constexpr std::size_t kBlockBytes = std::size_t{1} << 22;

/// Bytes of edge lines per parallel chunk: text shorter than two chunks'
/// worth is parsed by one chunk, inline on the caller.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

bool is_blank(char c) noexcept { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view skip_blanks(std::string_view s) noexcept {
  while (!s.empty() && is_blank(s.front())) s.remove_prefix(1);
  return s;
}

/// Takes the next line (without its '\n') off the front of `text`.
std::string_view take_line(std::string_view& text) noexcept {
  const std::size_t nl = text.find('\n');
  const std::string_view line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  return line;
}

/// Takes one whole unsigned id off the front of `rest` — no sign, no
/// suffix, in NodeId range — and the blanks after it. Parses in place: no
/// allocation per line (the loader's throughput is a benchmark metric).
bool take_id(std::string_view& rest, NodeId& out) noexcept {
  const auto [end, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), out);
  const auto used = static_cast<std::size_t>(end - rest.data());
  if (ec != std::errc{} || (used < rest.size() && !is_blank(rest[used]))) return false;
  rest = skip_blanks(rest.substr(used));
  return true;
}

[[noreturn]] void reject(std::size_t line_no, const std::string& what) {
  throw CheckError("read_edge_list: line " + std::to_string(line_no) + ": " + what);
}

/// Checks a declared node count before anything is sized by it: it must fit
/// the id types, and the graph's node offsets alone must fit in the
/// machine's physical memory.
void check_declared_nodes(std::size_t line_no, NodeId n) {
  try {
    detail::check_node_budget(n, sizeof(std::size_t), "node offsets");
  } catch (const CheckError& e) {
    reject(line_no, e.what());
  }
}

/// Consumes lines off `text` up to and including the header; returns
/// whether the header was found. `line_no` counts the consumed lines.
bool parse_header(std::string_view& text, std::size_t& line_no, NodeId& n) {
  while (!text.empty()) {
    std::string_view rest = skip_blanks(take_line(text));
    ++line_no;
    if (rest.empty() || rest.front() == '#') continue;
    const bool tagged = rest.size() > 1 && rest[0] == 'n' && is_blank(rest[1]);
    rest = skip_blanks(rest.substr(1));
    if (!tagged || !take_id(rest, n) || !rest.empty()) {
      reject(line_no, "expected the header 'n <num_nodes>'");
    }
    check_declared_nodes(line_no, n);
    return true;
  }
  return false;
}

/// One line-aligned piece of a block, parsed on its own.
struct Chunk {
  std::vector<Edge> edges;
  std::size_t lines = 0;  ///< lines read, through the bad one if any
  std::string error;      ///< what is wrong with the last line read; empty if nothing
};

/// Parses the edge lines of `text` into `out`, stopping at the first bad
/// line.
void parse_chunk(std::string_view text, NodeId n, Chunk& out) {
  while (!text.empty()) {
    std::string_view rest = skip_blanks(take_line(text));
    ++out.lines;
    if (rest.empty() || rest.front() == '#') continue;
    NodeId u = 0;
    NodeId v = 0;
    if (!take_id(rest, u) || !take_id(rest, v) || !rest.empty()) {
      out.error = "expected exactly two node ids '<u> <v>'";
      return;
    }
    if (u == v) {
      out.error = "self-loop at node " + std::to_string(u);
      return;
    }
    if (std::max(u, v) >= n) {
      out.error = "node id " + std::to_string(std::max(u, v)) + " out of range for n = " +
                  std::to_string(n);
      return;
    }
    out.edges.push_back(make_edge(u, v));
  }
}

/// Start of the first line that begins at or after `pos`.
std::size_t line_start_from(std::string_view text, std::size_t pos) noexcept {
  if (pos == 0) return 0;
  const std::size_t nl = text.find('\n', pos - 1);
  return nl == std::string_view::npos ? text.size() : nl + 1;
}

/// Parses whole edge lines on the pool, one line-aligned chunk per task,
/// and appends each chunk's edges to `parts` in file order. The first bad
/// line in file order is reported: chunks are checked in order, and a
/// chunk's line count covers every line before its own bad one.
void parse_edge_lines(std::string_view text, NodeId n, std::size_t& line_no,
                      std::vector<std::vector<Edge>>& parts) {
  if (text.empty()) return;
  const std::size_t pieces =
      text.size() < 2 * kChunkBytes
          ? 1
          : std::min(text.size() / kChunkBytes, ThreadPool::global().size());
  std::vector<Chunk> chunks(pieces);
  std::vector<std::size_t> cut(pieces + 1, text.size());
  cut[0] = 0;
  for (std::size_t p = 1; p < pieces; ++p) {
    cut[p] = std::max(cut[p - 1], line_start_from(text, text.size() * p / pieces));
  }
  // Reserved here, not in the tasks: memory a pool thread allocates stays in
  // that thread's malloc arena once freed, where the caller cannot reuse it
  // (about 3 MB more resident memory at m = 5 * 10^5). An edge line takes
  // at least 4 bytes ("0 1\n"), so no chunk regrows, and pages past its
  // parsed edges are never touched.
  for (std::size_t p = 0; p < pieces; ++p) {
    chunks[p].edges.reserve((cut[p + 1] - cut[p]) / 4 + 1);
  }
  ThreadPool::global().parallel_for(0, pieces, [&](std::size_t p) {
    parse_chunk(text.substr(cut[p], cut[p + 1] - cut[p]), n, chunks[p]);
  });
  for (Chunk& chunk : chunks) {
    line_no += chunk.lines;
    if (!chunk.error.empty()) reject(line_no, chunk.error);
    parts.push_back(std::move(chunk.edges));
  }
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  obs::PhaseSpan span("graph.read_edge_list", "graph");
  std::streambuf* const source = in.rdbuf();
  // A stream that knows how much it holds (a string stream, a regular file)
  // gets a buffer of that size, capped at a block.
  const std::streamsize avail = source == nullptr ? 0 : source->in_avail();
  std::vector<char, detail::FillAllocator<char>> buffer(
      avail > 0 ? std::min(static_cast<std::size_t>(avail) + 1, kBlockBytes) : kBlockBytes);
  std::vector<std::vector<Edge>> parts;
  std::size_t held = 0;     // bytes of an unfinished line kept at the buffer's front
  std::size_t line_no = 0;  // lines consumed so far
  NodeId n = 0;
  bool have_n = false;
  for (bool eof = false; !eof;) {
    const auto want = static_cast<std::streamsize>(buffer.size() - held);
    const std::streamsize got = source == nullptr ? 0 : source->sgetn(buffer.data() + held, want);
    eof = got < want;
    const std::string_view block(buffer.data(), held + static_cast<std::size_t>(got));
    // Whole lines only; at the end of the stream the last needs no newline.
    const std::size_t last_nl = block.rfind('\n');
    const std::size_t whole =
        eof ? block.size() : (last_nl == std::string_view::npos ? 0 : last_nl + 1);
    std::string_view text = block.substr(0, whole);
    if (!have_n) have_n = parse_header(text, line_no, n);
    if (have_n) parse_edge_lines(text, n, line_no, parts);
    held = block.size() - whole;
    std::memmove(buffer.data(), buffer.data() + whole, held);
    // More to come: the size hint fell short, or one line fills the buffer.
    if (!eof) buffer.resize(std::max(kBlockBytes, held == buffer.size() ? 2 * held : held));
  }
  REMSPAN_CHECK(have_n);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<Edge> edges;
  edges.reserve(total);
  for (const auto& part : parts) edges.insert(edges.end(), part.begin(), part.end());
  parts = {};
  detail::canonicalize(edges);
  return Graph::from_canonical_edges(n, std::move(edges));
}

std::string to_dot(const Graph& g, const EdgeSet* highlight, const std::string& name) {
  std::ostringstream out;
  out << "graph " << name << " {\n";
  out << "  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "  " << v << ";\n";
  }
  g.for_each_edge([&](const Edge& e, EdgeId id) {
    out << "  " << e.u << " -- " << e.v;
    if (highlight != nullptr) {
      if (highlight->contains(id)) {
        out << " [penwidth=2]";
      } else {
        out << " [style=dashed, color=gray]";
      }
    }
    out << ";\n";
  });
  out << "}\n";
  return out.str();
}

}  // namespace remspan
