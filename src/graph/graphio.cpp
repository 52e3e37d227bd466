#include "graph/graphio.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

namespace remspan {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "n " << g.num_nodes() << '\n';
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
}

namespace {

bool is_blank(char c) noexcept { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view skip_blanks(std::string_view s) noexcept {
  while (!s.empty() && is_blank(s.front())) s.remove_prefix(1);
  return s;
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

[[noreturn]] void malformed(std::size_t line_no, const char* expected) {
  throw CheckError("read_edge_list: line " + std::to_string(line_no) + ": expected " +
                   expected);
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  NodeId n = 0;
  bool have_n = false;
  std::vector<std::pair<NodeId, NodeId>> pending;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view rest = skip_blanks(line);
    if (rest.empty() || rest.front() == '#') continue;
    if (!have_n) {
      const bool tagged = rest.size() > 1 && rest[0] == 'n' && is_blank(rest[1]);
      rest = skip_blanks(rest.substr(1));
      if (!tagged || !take_id(rest, n) || !rest.empty()) {
        malformed(line_no, "the header 'n <num_nodes>'");
      }
      have_n = true;
      continue;
    }
    NodeId u = 0;
    NodeId v = 0;
    if (!take_id(rest, u) || !take_id(rest, v) || !rest.empty()) {
      malformed(line_no, "exactly two node ids '<u> <v>'");
    }
    pending.emplace_back(u, v);
  }
  REMSPAN_CHECK(have_n);
  GraphBuilder builder(n);
  builder.reserve(pending.size());
  for (const auto& [u, v] : pending) builder.add_edge(u, v);
  return builder.build();
}

std::string to_dot(const Graph& g, const EdgeSet* highlight, const std::string& name) {
  std::ostringstream out;
  out << "graph " << name << " {\n";
  out << "  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "  " << v << ";\n";
  }
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    out << "  " << e.u << " -- " << e.v;
    if (highlight != nullptr) {
      if (highlight->contains(id)) {
        out << " [penwidth=2]";
      } else {
        out << " [style=dashed, color=gray]";
      }
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace remspan
