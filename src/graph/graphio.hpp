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
/// So do a self-loop, an id >= n, and a header n over the node-id limit or
/// whose node offsets alone (8 bytes a node) exceed the machine's physical
/// memory; n is checked before anything is sized by it. Duplicate edges
/// are merged and any edge order is accepted.
///
/// read_edge_list reads the stream through its streambuf in blocks of at
/// most 4 MiB (the stream's in_avail() sizes the first) and parses each
/// block's lines in chunks on the global thread pool; an edge list already
/// in canonical order (as write_edge_list writes it) is not re-sorted.
void write_edge_list(std::ostream& out, const Graph& g);
[[nodiscard]] Graph read_edge_list(std::istream& in);

/// DOT rendering. When `highlight` is given, edges inside it are drawn
/// solid/bold, others dashed grey — the paper's Figure 1 convention for
/// spanner vs input edges.
[[nodiscard]] std::string to_dot(const Graph& g, const EdgeSet* highlight = nullptr,
                                 const std::string& name = "G");

}  // namespace remspan
