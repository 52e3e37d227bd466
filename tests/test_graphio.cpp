// Edge-list round trips and DOT export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

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
}

TEST(GraphIo, SurroundingBlanksAndCrlfAccepted) {
  std::stringstream in("n 4\r\n  0\t1  \r\n\t \n  # indented comment\n2 3\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
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
