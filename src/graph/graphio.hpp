// Plain-text graph serialization: a simple edge-list format for persisting
// generated workloads, and Graphviz DOT export (with spanner-edge
// highlighting) used by the figure1 example.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/edge_set.hpp"
#include "graph/graph.hpp"

namespace remspan {

/// Format:
///   # comments allowed
///   n <num_nodes>
///   <u> <v>        (one edge per line)
/// Blank lines and lines starting with '#' (after optional blanks) are
/// skipped. Every other line must be exactly the header, then exactly two
/// unsigned ids, with surrounding blanks allowed; anything else throws
/// CheckError naming the 1-based line number — no line is silently dropped.
void write_edge_list(std::ostream& out, const Graph& g);
[[nodiscard]] Graph read_edge_list(std::istream& in);

/// DOT rendering. When `highlight` is given, edges inside it are drawn
/// solid/bold, others dashed grey — the paper's Figure 1 convention for
/// spanner vs input edges.
[[nodiscard]] std::string to_dot(const Graph& g, const EdgeSet* highlight = nullptr,
                                 const std::string& name = "G");

}  // namespace remspan
