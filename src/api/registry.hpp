// The construction registry and the remspan::api facade: one way in for
// every driver (remspan_tool, the benches, the C ABI, external code).
//
// A SpannerSpec names a construction; the registry maps it to an entry that
// knows how to (a) build the spanner with its paper guarantee and matching
// exact-oracle verifier, and (b) name its per-root TreeRule
// (core/remote_spanner.hpp), which is all the incremental engine
// (src/dynamic), the service (src/serve) and the distributed protocol
// (src/sim) need — the rule is optional per construction. The seven shipped
// constructions (th1, th2, th3, mpr, greedy, baswana, full) are registered
// at startup; future constructions (weighted remote-spanners, CONGEST
// comparators) plug in through register_construction and become reachable
// from every driver at once, string-addressable by spec.
//
// Build functions are thin: they call the exact same underlying library
// entry points (core/, baseline/) a direct caller would, so going through
// the registry is bit-identical to calling the construction directly
// (tests/test_api_spec.cpp pins this for all seven).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "core/remote_spanner.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "graph/edge_set.hpp"
#include "sim/reconvergence.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan::api {

/// Optional knobs a driver can thread into a registry build.
struct BuildContext {
  /// RNG for seeded constructions (baswana). When null, the build derives a
  /// fresh Rng from spec.seed; passing one lets a driver share generator
  /// state across several builds (remspan_tool threads its CLI seed RNG).
  Rng* rng = nullptr;
  /// Filled with per-root tree aggregates when the construction has them.
  SpannerBuildInfo* info = nullptr;
};

/// Knobs of the verifier hook; defaults match remspan_tool's oracle calls.
struct VerifyOptions {
  std::size_t sample_pairs = 300;  ///< k-connecting oracle sample budget
  std::uint64_t seed = 1;          ///< sampling seed
};

/// Outcome of the construction-matching exact oracle.
struct VerifyReport {
  bool satisfied = true;
  double max_ratio = 1.0;  ///< worst measured stretch ratio
};

/// Construction-matching exact-oracle runner (remote / k-connecting /
/// classical stretch); null when there is nothing to verify ("full").
using VerifyFn = std::function<VerifyReport(const Graph&, const EdgeSet&, const VerifyOptions&)>;

/// What a registry build returns: the spanner plus everything a driver
/// needs to report and check it without knowing which construction ran.
struct SpannerResult {
  EdgeSet edges;
  SpannerBuildInfo info;
  /// The paper guarantee (alpha, beta) the construction promises.
  Stretch guarantee;
  /// Human-readable guarantee, e.g. "2-connecting remote (2,-1)".
  std::string guarantee_label;
  /// See VerifyFn; capture the matching oracle for `edges`.
  VerifyFn verify;
};

/// One registered construction. `build_edges`, `guarantee` and
/// `guarantee_label` are mandatory; `verifier` and `rule` are null for
/// constructions without the capability (a construction with a rule is a
/// union of per-root trees, so it gets incremental sessions, service
/// tenants and protocol sessions at once).
struct Construction {
  std::string name;     ///< registry key == SpannerSpec kind name
  std::string summary;  ///< one-line description (--help, docs)
  std::function<EdgeSet(const Graph&, const SpannerSpec&, const BuildContext&)> build_edges;
  std::function<Stretch(const SpannerSpec&)> guarantee;
  std::function<std::string(const SpannerSpec&)> guarantee_label;
  std::function<VerifyFn(const SpannerSpec&)> verifier;
  std::function<TreeRule(const SpannerSpec&)> rule;
};

/// Name -> Construction map behind the facade. Thread-compatible: register
/// at startup, look up from anywhere.
class ConstructionRegistry {
 public:
  /// The process-wide registry, pre-populated with the seven shipped
  /// constructions on first use.
  [[nodiscard]] static ConstructionRegistry& global();

  /// Registers a construction; throws SpecError if the name is taken or
  /// the entry has no build function.
  void register_construction(Construction entry);

  /// Entry by name, or null when unknown.
  [[nodiscard]] const Construction* find(const std::string& name) const;

  /// Entry for a spec; throws SpecError when the kind is not registered.
  [[nodiscard]] const Construction& at(const SpannerSpec& spec) const;

  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, Construction> entries_;
};

// --- facade ---------------------------------------------------------------

/// Builds the spanner a spec describes via the registry.
[[nodiscard]] SpannerResult build_spanner(const Graph& g, const SpannerSpec& spec,
                                          const BuildContext& ctx = {});

/// String-spec convenience: parse + build. Throws SpecError on bad specs.
[[nodiscard]] SpannerResult build_spanner(const Graph& g, const std::string& spec,
                                          const BuildContext& ctx = {});

/// The spec's paper guarantee / label without building anything.
[[nodiscard]] Stretch guarantee(const SpannerSpec& spec);
[[nodiscard]] std::string guarantee_label(const SpannerSpec& spec);

/// The spec's exact-oracle runner; a null function when the construction
/// has nothing to verify.
[[nodiscard]] VerifyFn make_verifier(const SpannerSpec& spec);

/// Maps a spec to its per-root TreeRule — the one spec -> rule facade the
/// incremental engine, the service and the protocol sessions share; throws
/// SpecError when the construction has no rule (greedy, baswana, full).
[[nodiscard]] TreeRule incremental_config(const SpannerSpec& spec);

/// True when the spec's construction has a TreeRule.
[[nodiscard]] bool supports_incremental(const SpannerSpec& spec);

/// An incremental-maintenance session: owns the evolving topology (seeded
/// from `initial`) and the engine maintaining the spec's spanner over it —
/// the pairing every driver of src/dynamic needs (IncrementalSpanner
/// borrows its DynamicGraph). Opened by spec; the C ABI's
/// remspan_session_t wraps exactly this.
class IncrementalSession {
 public:
  /// Builds the initial spanner; throws SpecError for constructions without
  /// incremental support.
  IncrementalSession(const Graph& initial, const SpannerSpec& spec);

  /// Not movable: the engine holds a reference to this object's
  /// DynamicGraph member, so a moved-from session would leave the engine
  /// pointing at dead storage. Hold sessions by unique_ptr (as
  /// open_incremental_session returns them).
  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;
  IncrementalSession(IncrementalSession&&) = delete;
  IncrementalSession& operator=(IncrementalSession&&) = delete;

  [[nodiscard]] const SpannerSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] DynamicGraph& dynamic_graph() noexcept { return dynamic_; }
  [[nodiscard]] IncrementalSpanner& engine() noexcept { return *engine_; }
  [[nodiscard]] const IncrementalSpanner& engine() const noexcept { return *engine_; }

  /// Shorthands for the common queries.
  [[nodiscard]] const Graph& graph() const noexcept { return engine_->graph(); }
  [[nodiscard]] const EdgeSet& spanner() const noexcept { return engine_->spanner(); }
  ChurnBatchStats apply_batch(std::span<const GraphEvent> events) {
    return engine_->apply_batch(events);
  }

 private:
  SpannerSpec spec_;
  DynamicGraph dynamic_;
  std::unique_ptr<IncrementalSpanner> engine_;
};

/// Opens an incremental session for a spec (see IncrementalSession).
[[nodiscard]] std::unique_ptr<IncrementalSession> open_incremental_session(
    const Graph& initial, const SpannerSpec& spec);

/// Opens a protocol-level reconvergence session for a spec; throws
/// SpecError for constructions without a TreeRule. A faulty `faults.link`
/// runs the session over a lossy/delaying channel with the reliable
/// protocol variant (see reconvergence.hpp for the convergence-under-loss
/// contract); the default keeps the lossless one-shot schedule.
[[nodiscard]] std::unique_ptr<ReconvergenceSim> open_reconvergence_session(
    const Graph& initial, const SpannerSpec& spec, ReconvergeStrategy strategy,
    const FaultConfig& faults = {});

}  // namespace remspan::api
