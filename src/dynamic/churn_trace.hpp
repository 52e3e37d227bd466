// ChurnTrace: reproducible streams of topology updates for the dynamic
// workloads. A trace is an initial graph plus batches of GraphEvents; the
// three generators model the churn an ad-hoc/OLSR-style network actually
// sees:
//
//   random_edge_churn_trace — memoryless link flapping (plus optional node
//       reboots): each event toggles a uniformly random link of the initial
//       topology, so the churn is spatially uncorrelated — the adversarial
//       case for locality-based incremental maintenance.
//   mobility_churn_trace    — geometric mobility: per batch a few nodes
//       re-sample their position inside the deployment area and their unit
//       ball edges are recomputed. Churn is concentrated around the movers.
//   region_outage_trace     — correlated failures: an outage takes down
//       every link inside a random disk (jamming, weather, power domain),
//       the following batch restores it.
//
// All generators are deterministic functions of (inputs, seed). Traces
// round-trip through a plain-text format (write/read) so recorded or
// synthesized event lists can be replayed by remspan_tool --churn-trace.
#pragma once

#include <iosfwd>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "geom/ball_graph.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace remspan {

struct ChurnTrace {
  NodeId num_nodes = 0;             ///< fixed node universe of the trace
  std::vector<Edge> initial_edges;  ///< initial topology, canonical order
  std::vector<std::vector<GraphEvent>> batches;  ///< event batches, applied in order

  /// Materializes the initial topology as an immutable CSR Graph.
  [[nodiscard]] Graph initial_graph() const;

  friend bool operator==(const ChurnTrace&, const ChurnTrace&) = default;
};

/// Plain-text serialization:
///   churntrace 1
///   nodes <n>
///   edges <m>
///   <u> <v>              (m lines)
///   batches <B>
///   batch <num_events>
///   e+ <u> <v> | e- <u> <v> | n+ <v> | n- <v>
void write_churn_trace(std::ostream& out, const ChurnTrace& trace);

/// Parses the write_churn_trace format, one record per line; throws
/// CheckError naming the line on malformed input: a sign, a suffix or an
/// extra token, an id out of range, or a node count over the id limit or
/// too large for the replay's per-node state to fit in physical memory
/// (checked before anything is sized by it).
[[nodiscard]] ChurnTrace read_churn_trace(std::istream& in);

/// Uncorrelated link churn over g's edge set: `events_per_batch` events per
/// batch, each toggling a uniformly random initial edge (down if currently
/// up, back up otherwise). A `node_event_fraction` share of events instead
/// toggles the liveness of a uniformly random node.
[[nodiscard]] ChurnTrace random_edge_churn_trace(const Graph& g, std::size_t num_batches,
                                                 std::size_t events_per_batch,
                                                 double node_event_fraction, std::uint64_t seed);

/// Geometric mobility: per batch, `movers_per_batch` distinct nodes
/// re-sample their position uniformly inside the initial cloud's bounding
/// box and their unit-ball edges are recomputed against every other node.
[[nodiscard]] ChurnTrace mobility_churn_trace(const GeometricGraph& gg, std::size_t num_batches,
                                              std::size_t movers_per_batch, std::uint64_t seed);

/// Correlated regional failures: `num_outages` (outage, recovery) batch
/// pairs. Each outage picks a uniform center in the bounding box and takes
/// down every initial edge with both endpoints within `region_radius`; the
/// following batch restores exactly those links.
[[nodiscard]] ChurnTrace region_outage_trace(const GeometricGraph& gg, std::size_t num_outages,
                                             double region_radius, std::uint64_t seed);

}  // namespace remspan
