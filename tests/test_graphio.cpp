// Edge-list round trips and DOT export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/graphio.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

TEST(GraphIo, RoundTripRandomGraph) {
  Rng rng(901);
  const Graph g = gnp(40, 0.15, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    EXPECT_EQ(back.edge(id), g.edge(id));
  }
}

TEST(GraphIo, RoundTripEmptyAndIsolated) {
  GraphBuilder b(5);
  b.add_edge(1, 3);
  const Graph g = b.build();  // nodes 0,2,4 isolated
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  EXPECT_EQ(back.num_nodes(), 5u);
  EXPECT_EQ(back.num_edges(), 1u);
  EXPECT_TRUE(back.has_edge(1, 3));
}

TEST(GraphIo, CommentsAndBlanksIgnored) {
  std::stringstream in("# a comment\n\nn 4\n# another\n0 1\n\n2 3\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, MissingHeaderThrows) {
  std::stringstream in("0 1\n");
  EXPECT_THROW((void)read_edge_list(in), CheckError);
}

/// Expects read_edge_list to reject `text` with a CheckError naming `line`.
void expect_rejected_at(const std::string& text, int line) {
  std::stringstream in(text);
  try {
    (void)read_edge_list(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) + ":"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, MalformedEdgeLinesThrowNamingTheLine) {
  expect_rejected_at("n 3\n0 1\nfoo bar\n1 2", 3);  // was silently dropped (m = 2)
  expect_rejected_at("n 3\n0 1 junk\n", 2);         // was accepted as 0 1
  expect_rejected_at("n 3\n0\n", 2);
  expect_rejected_at("n 3\n0 -1\n", 2);
  expect_rejected_at("n 3\n0 1x\n", 2);
  expect_rejected_at("n 3\n0 4294967296\n", 2);
  expect_rejected_at("# c\nn 3 extra\n", 2);
  expect_rejected_at("nodes 3\n", 1);
  expect_rejected_at("n 3\n0 1\n2 2\n", 3);       // self-loop
  expect_rejected_at("n 3\n0 3\n", 2);             // id == n
  expect_rejected_at("n 3\n# c\n\n7 1\n", 4);      // id > n, as u
  expect_rejected_at("n 3\n0 1\n0 1 2\n1 1\n", 3);  // the first bad line wins
}

TEST(GraphIo, HeaderNodeCountCheckedBeforeAllocating) {
  expect_rejected_at("# c\nn 4294967295\n0 1\n", 2);  // the kInvalidNode sentinel
  // A header whose node offsets alone (8 bytes a node) exceed physical
  // memory is an error naming the header, not a bad_alloc.
  const double physical = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                          static_cast<double>(sysconf(_SC_PAGESIZE));
  if (physical < 8.0 * 3e9) expect_rejected_at("n 3000000000\n0 1\n", 1);
}

TEST(GraphIo, SurroundingBlanksAndCrlfAccepted) {
  std::stringstream in("n 4\r\n  0\t1  \r\n\t \n  # indented comment\n2 3\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

// --- inputs spanning many parse chunks and read blocks ------------------
//
// read_edge_list reads 4 MiB blocks and parses each in line-aligned chunks
// of at least 64 KiB on the pool; these inputs are several MiB, so line
// kinds sprinkled densely land on chunk and block boundaries whatever the
// pool size.

/// A 10^5-node unit-disk graph (about 5 * 10^5 edges, 5.8 MB as text).
const Graph& large_graph() {
  static const Graph g = [] {
    Rng rng(8);
    const double side = std::sqrt(1e5 * std::numbers::pi / 10.0);
    return random_unit_disk_graph(side, 1e5, rng).graph;
  }();
  return g;
}

Graph read_text(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.edges().begin(), a.edges().end(), b.edges().begin(), b.edges().end()));
}

TEST(GraphIo, ManyChunksWithCommentsBlanksAndCrlf) {
  const Graph& g = large_graph();
  std::string text = "# " + std::string(5 << 20, 'c') + "\n";  // one line longer than a block
  text += "n " + std::to_string(g.num_nodes()) + "\r\n";
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (id % 89 == 0) text += "\n";
    if (id % 97 == 0) text += "  # comment " + std::to_string(id) + "\n";
    if (id % 31 == 0) text += " \t\r\n";
    text += (id % 2 == 0 ? "" : "\t") + std::to_string(g.edge(id).u) + " " +
            std::to_string(g.edge(id).v) + (id % 13 == 0 ? " \r\n" : "\n");
  }
  expect_same_graph(read_text(text), g);
}

TEST(GraphIo, ManyChunksUnsortedAndDuplicatedEqualsBuilder) {
  const Graph& g = large_graph();
  std::vector<Edge> lines(g.edges().begin(), g.edges().end());
  lines.insert(lines.end(), g.edges().begin(), g.edges().begin() + 20000);
  Rng rng(12);
  rng.shuffle(lines);
  std::string text = "n " + std::to_string(g.num_nodes()) + "\n";
  GraphBuilder builder(g.num_nodes());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Edge e = lines[i];
    const bool flip = i % 3 == 0;
    text += std::to_string(flip ? e.v : e.u) + " " + std::to_string(flip ? e.u : e.v) + "\n";
    builder.add_edge(e.u, e.v);
  }
  const Graph read = read_text(text);
  expect_same_graph(read, builder.build());
  expect_same_graph(read, g);
}

TEST(GraphIo, ManyChunksBadLineReportsItsExactLineNumber) {
  // Comment and blank lines count toward line numbers in every chunk.
  const Graph& g = large_graph();
  std::string good = "n " + std::to_string(g.num_nodes()) + "\n";
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (id % 50 == 0) good += "# c\n";
    if (id % 70 == 0) good += "\n";
    good += std::to_string(g.edge(id).u) + " " + std::to_string(g.edge(id).v) + "\n";
  }
  // `bad` inserted as a line of its own at the first line start at or
  // after byte `at`; returns the text and the 1-based number of that line.
  const auto with_bad_line = [](const std::string& text, std::size_t at, const std::string& bad) {
    const std::size_t pos = at == 0 ? 0 : text.find('\n', at - 1) + 1;
    const auto line = std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos),
                                 '\n') + 1;
    return std::pair{text.substr(0, pos) + bad + "\n" + text.substr(pos), static_cast<int>(line)};
  };
  const std::size_t deep = good.size() - 10000;  // in the second read block
  for (const std::string& bad : {std::string("12 x"), std::string("5 5"),
                                 "0 " + std::to_string(g.num_nodes())}) {
    const auto [text, line] = with_bad_line(good, deep, bad);
    expect_rejected_at(text, line);
  }
  const auto [mid, mid_line] = with_bad_line(good, 3000000, "1 2 3");
  expect_rejected_at(mid, mid_line);
  // Two bad lines in different chunks of one block, and in different
  // blocks: the first in file order is named.
  for (const std::size_t later : {std::size_t{3000000}, deep}) {
    const auto [two_bad, first_line] =
        with_bad_line(with_bad_line(good, later, "bad").first, 300000, "also bad");
    expect_rejected_at(two_bad, first_line);
  }
}

TEST(GraphIo, FinalLineWithoutNewline) {
  const Graph& g = large_graph();
  std::ostringstream out;
  write_edge_list(out, g);
  std::string text = out.str();
  text.pop_back();
  expect_same_graph(read_text(text), g);
  expect_same_graph(read_text(text + "\r"), g);
  expect_same_graph(read_text(text + "\n# trailing comment"), g);
  const Graph small = read_text("n 3\n0 1\n1 2");
  EXPECT_EQ(small.num_edges(), 2u);
  EXPECT_TRUE(small.has_edge(1, 2));
}

/// A stream buffer that hands out its text 3 bytes at a time and reports
/// only those as available, as a pipe with little buffered input does.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string text) : text_(std::move(text)) {}

 protected:
  std::streamsize showmanyc() override { return pos_ == text_.size() ? -1 : 3; }
  int_type underflow() override {
    if (pos_ == text_.size()) return traits_type::eof();
    char* const p = text_.data() + pos_;
    pos_ += std::min<std::size_t>(3, text_.size() - pos_);
    setg(p, p, text_.data() + pos_);
    return traits_type::to_int_type(*p);
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
};

TEST(GraphIo, StreamSizeHintIsOnlyAHint) {
  // The first read is sized by in_avail(); a stream holding more, with a
  // first line longer than that buffer, still reads in full.
  const Graph& g = large_graph();
  std::ostringstream out;
  out << "# " << std::string(5000, 'c') << "\n";
  write_edge_list(out, g);
  TrickleBuf buf(out.str());
  ASSERT_EQ(buf.in_avail(), 3);
  std::istream in(&buf);
  expect_same_graph(read_edge_list(in), g);
}

TEST(GraphIo, DotContainsAllEdges) {
  const Graph g = cycle_graph(4);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 3"), std::string::npos);  // canonical u < v form
  EXPECT_NE(dot.find("2 -- 3"), std::string::npos);
}

TEST(GraphIo, DotHighlightStylesSpannerEdges) {
  const Graph g = path_graph(3);
  EdgeSet h(g);
  h.insert(0, 1);
  const std::string dot = to_dot(g, &h, "X");
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace remspan
