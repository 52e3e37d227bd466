// Ad-hoc link-state routing scenario (the paper's motivating application,
// Section 1): a dense wireless network where flooding the full topology is
// wasteful. Runs the distributed RemSpan protocol on the round simulator,
// compares its advertisement cost against full link-state dissemination,
// and routes packets greedily over the resulting remote-spanner.
//
//   ./adhoc_linkstate [--n 300] [--side 5] [--eps 0.5] [--seed 3]
#include <iostream>

#include "analysis/spanner_stats.hpp"
#include "analysis/stretch_oracle.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "graph/connectivity.hpp"
#include "sim/remspan_protocol.hpp"
#include "sim/routing.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace remspan;

int tool_main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto n = static_cast<std::size_t>(opts.get_int("n", 300));
  const double side = opts.get_double("side", 5.0);
  const double eps = opts.get_double("eps", 0.5);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 3));
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;

  Rng rng(seed);
  const auto gg = uniform_unit_ball_graph(n, side, 2, rng);
  const Graph g = largest_component(gg.graph);
  std::cout << "ad-hoc network: n=" << g.num_nodes() << " links=" << g.num_edges()
            << " avg_degree=" << format_double(g.average_degree(), 1) << "\n\n";

  // Distributed construction on the round simulator.
  const TreeRule rule = TreeRule::low_stretch(eps, TreeAlgorithm::kMis);
  const auto run = run_remspan_distributed(g, rule);
  std::cout << "RemSpan protocol: " << run.rounds << " rounds (paper: 2r-1+2b = "
            << expected_rounds(rule) << "), " << run.stats.transmissions
            << " transmissions, " << run.stats.payload_words << " payload words\n";

  // Steady-state comparison: link-state routing periodically floods its
  // advertised links network-wide (each flood costs one transmission per
  // node). Classic OSPF floods all 2m link entries; the remote-spanner
  // approach floods only H's links — the protocol's local setup messages
  // above are a one-time cost confined to B(u, r-1+beta).
  const auto stats = compute_spanner_stats(run.spanner);
  const std::uint64_t full_words =
      static_cast<std::uint64_t>(2 * g.num_edges()) * g.num_nodes();
  const std::uint64_t spanner_words =
      static_cast<std::uint64_t>(2 * stats.spanner_edges) * g.num_nodes();
  std::cout << "steady-state advertisement volume per refresh cycle:\n"
            << "  full link state : ~" << full_words << " words network-wide\n"
            << "  remote-spanner  : ~" << spanner_words << " words ("
            << format_double(100.0 * static_cast<double>(spanner_words) /
                                 static_cast<double>(full_words),
                             1)
            << "% — advertised sub-graph " << format_edges_with_fraction(stats)
            << " of all links)\n\n";

  // Verify the stretch the protocol promises, then route.
  const Stretch s = stretch_for_radius(rule.r);
  const auto report = check_remote_stretch(g, run.spanner, s);
  std::cout << "stretch (" << format_double(s.alpha, 2) << "," << format_double(s.beta, 2)
            << "): " << (report.satisfied ? "verified over all pairs" : "VIOLATED")
            << ", worst ratio " << format_double(report.max_ratio, 3) << ", avg "
            << format_double(report.avg_ratio, 3) << "\n\n";

  Table table({"src", "dst", "greedy hops", "shortest", "ratio"});
  Rng pick(seed + 1);
  for (int i = 0; i < 8; ++i) {
    const auto s_node = static_cast<NodeId>(pick.uniform(g.num_nodes()));
    const auto t_node = static_cast<NodeId>(pick.uniform(g.num_nodes()));
    if (s_node == t_node) continue;
    const auto route = greedy_route(run.spanner, s_node, t_node);
    const Dist sp = bfs_distance(GraphView(g), s_node, t_node);
    table.add_row({std::to_string(s_node), std::to_string(t_node),
                   route.delivered ? std::to_string(route.hops()) : "-",
                   std::to_string(sp),
                   route.delivered && sp > 0
                       ? format_double(static_cast<double>(route.hops()) / sp, 2)
                       : "-"});
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return cli_main(tool_main, argc, argv); }
