#include "api/registry.hpp"

#include <utility>

#include "analysis/kconn_oracle.hpp"
#include "analysis/stretch_oracle.hpp"
#include "baseline/baswana_sen.hpp"
#include "baseline/greedy_spanner.hpp"
#include "util/table.hpp"

namespace remspan::api {
namespace {

/// Shared verifier shapes: remote / k-connecting / classical stretch, each
/// capturing the construction's guarantee.
VerifyFn remote_verifier(Stretch stretch) {
  return [stretch](const Graph& g, const EdgeSet& h, const VerifyOptions&) {
    const StretchReport r = check_remote_stretch(g, h, stretch);
    return VerifyReport{r.satisfied, r.max_ratio};
  };
}

VerifyFn kconn_verifier(Dist k, Stretch stretch) {
  return [k, stretch](const Graph& g, const EdgeSet& h, const VerifyOptions& opts) {
    const KConnReport r =
        check_k_connecting_stretch(g, h, k, stretch, opts.sample_pairs, opts.seed);
    return VerifyReport{r.satisfied, r.max_ratio};
  };
}

VerifyFn classic_verifier(Stretch stretch) {
  return [stretch](const Graph& g, const EdgeSet& h, const VerifyOptions&) {
    const StretchReport r = check_spanner_stretch(g, h, stretch);
    return VerifyReport{r.satisfied, r.max_ratio};
  };
}

Construction make_th1() {
  Construction c;
  c.name = "th1";
  c.summary = "Theorem 1: union of (r,1)-dominating trees, (1+eps,1-2eps)-remote-spanner";
  c.build_edges = [](const Graph& g, const SpannerSpec& spec, const BuildContext& ctx) {
    return build_low_stretch_remote_spanner(g, spec.eps, spec.tree, ctx.info);
  };
  c.guarantee = [](const SpannerSpec& spec) {
    return Stretch{1.0 + spec.eps, 1.0 - 2.0 * spec.eps};
  };
  c.guarantee_label = [](const SpannerSpec& spec) {
    const Stretch s{1.0 + spec.eps, 1.0 - 2.0 * spec.eps};
    return "remote (" + format_double(s.alpha, 2) + "," + format_double(s.beta, 2) + ")";
  };
  c.verifier = [](const SpannerSpec& spec) {
    return remote_verifier(Stretch{1.0 + spec.eps, 1.0 - 2.0 * spec.eps});
  };
  c.rule = [](const SpannerSpec& spec) { return TreeRule::low_stretch(spec.eps, spec.tree); };
  return c;
}

Construction make_th2() {
  Construction c;
  c.name = "th2";
  c.summary = "Theorem 2: k-connecting greedy trees, k-connecting (1,0)-remote-spanner";
  c.build_edges = [](const Graph& g, const SpannerSpec& spec, const BuildContext& ctx) {
    return build_k_connecting_spanner(g, spec.k, ctx.info);
  };
  c.guarantee = [](const SpannerSpec&) { return Stretch{1.0, 0.0}; };
  c.guarantee_label = [](const SpannerSpec& spec) {
    return std::to_string(spec.k) + "-connecting remote (1,0)";
  };
  c.verifier = [](const SpannerSpec& spec) {
    return kconn_verifier(spec.k, Stretch{1.0, 0.0});
  };
  c.rule = [](const SpannerSpec& spec) { return TreeRule::k_connecting(spec.k); };
  return c;
}

Construction make_th3() {
  Construction c;
  c.name = "th3";
  c.summary = "Theorem 3: k rounds of MIS trees, 2-connecting (2,-1)-remote-spanner";
  c.build_edges = [](const Graph& g, const SpannerSpec& spec, const BuildContext& ctx) {
    return build_2connecting_spanner(g, spec.k, ctx.info);
  };
  c.guarantee = [](const SpannerSpec&) { return Stretch{2.0, -1.0}; };
  c.guarantee_label = [](const SpannerSpec&) { return std::string("2-connecting remote (2,-1)"); };
  // Theorem 3's guarantee is stated for k' <= 2 regardless of the tree
  // parameter k (remspan_tool has always checked it at 2).
  c.verifier = [](const SpannerSpec&) { return kconn_verifier(2, Stretch{2.0, -1.0}); };
  c.rule = [](const SpannerSpec& spec) { return TreeRule::two_connecting(spec.k); };
  return c;
}

Construction make_mpr() {
  Construction c;
  c.name = "mpr";
  c.summary = "OLSR multipoint-relay union (RFC 3626), (1,0)-remote-spanner";
  c.build_edges = [](const Graph& g, const SpannerSpec&, const BuildContext& ctx) {
    return olsr_mpr_spanner(g, ctx.info);
  };
  c.guarantee = [](const SpannerSpec&) { return Stretch{1.0, 0.0}; };
  c.guarantee_label = [](const SpannerSpec&) { return std::string("remote (1,0) via OLSR MPR"); };
  c.verifier = [](const SpannerSpec&) { return remote_verifier(Stretch{1.0, 0.0}); };
  c.rule = [](const SpannerSpec&) { return TreeRule::mpr(); };
  return c;
}

Construction make_greedy() {
  Construction c;
  c.name = "greedy";
  c.summary = "classical greedy (t,0)-spanner (comparator)";
  c.build_edges = [](const Graph& g, const SpannerSpec& spec, const BuildContext&) {
    return greedy_spanner(g, spec.t);
  };
  c.guarantee = [](const SpannerSpec& spec) { return Stretch{spec.t, 0.0}; };
  c.guarantee_label = [](const SpannerSpec& spec) {
    return "classical (" + format_double(spec.t, 1) + ",0)";
  };
  c.verifier = [](const SpannerSpec& spec) { return classic_verifier(Stretch{spec.t, 0.0}); };
  return c;
}

Construction make_baswana() {
  Construction c;
  c.name = "baswana";
  c.summary = "Baswana-Sen randomized (2k-1,0)-spanner (comparator)";
  c.build_edges = [](const Graph& g, const SpannerSpec& spec, const BuildContext& ctx) {
    Rng local(spec.seed);
    Rng& rng = ctx.rng != nullptr ? *ctx.rng : local;
    return baswana_sen_spanner(g, spec.k, rng);
  };
  c.guarantee = [](const SpannerSpec& spec) { return Stretch{2.0 * spec.k - 1.0, 0.0}; };
  c.guarantee_label = [](const SpannerSpec& spec) {
    return "classical (" + format_double(2.0 * spec.k - 1.0, 0) + ",0)";
  };
  c.verifier = [](const SpannerSpec& spec) {
    return classic_verifier(Stretch{2.0 * spec.k - 1.0, 0.0});
  };
  return c;
}

Construction make_full() {
  Construction c;
  c.name = "full";
  c.summary = "all input edges (trivial baseline)";
  c.build_edges = [](const Graph& g, const SpannerSpec&, const BuildContext&) {
    return EdgeSet(g, true);
  };
  c.guarantee = [](const SpannerSpec&) { return Stretch{1.0, 0.0}; };
  c.guarantee_label = [](const SpannerSpec&) { return std::string("all edges"); };
  // No verifier: nothing to check on the identity "spanner".
  return c;
}

}  // namespace

ConstructionRegistry& ConstructionRegistry::global() {
  static ConstructionRegistry registry = [] {
    ConstructionRegistry r;
    r.register_construction(make_th1());
    r.register_construction(make_th2());
    r.register_construction(make_th3());
    r.register_construction(make_mpr());
    r.register_construction(make_greedy());
    r.register_construction(make_baswana());
    r.register_construction(make_full());
    return r;
  }();
  return registry;
}

void ConstructionRegistry::register_construction(Construction entry) {
  if (entry.name.empty() || entry.build_edges == nullptr || entry.guarantee == nullptr ||
      entry.guarantee_label == nullptr) {
    throw SpecError(
        "construction registration needs a name, build_edges, guarantee and guarantee_label");
  }
  const auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  if (!inserted) {
    throw SpecError("construction '" + it->first + "' is already registered");
  }
}

const Construction* ConstructionRegistry::find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

const Construction& ConstructionRegistry::at(const SpannerSpec& spec) const {
  const Construction* entry = find(spec.kind_name());
  if (entry == nullptr) {
    throw SpecError(std::string("construction '") + spec.kind_name() + "' is not registered");
  }
  return *entry;
}

std::vector<std::string> ConstructionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

SpannerResult build_spanner(const Graph& g, const SpannerSpec& spec, const BuildContext& ctx) {
  const Construction& entry = ConstructionRegistry::global().at(spec);
  SpannerResult res{EdgeSet(g), {}, {}, {}, {}};
  BuildContext inner = ctx;
  if (inner.info == nullptr) inner.info = &res.info;
  res.edges = entry.build_edges(g, spec, inner);
  res.info = *inner.info;
  res.guarantee = entry.guarantee(spec);
  res.guarantee_label = entry.guarantee_label(spec);
  if (entry.verifier != nullptr) res.verify = entry.verifier(spec);
  return res;
}

SpannerResult build_spanner(const Graph& g, const std::string& spec, const BuildContext& ctx) {
  return build_spanner(g, parse_spanner_spec(spec), ctx);
}

Stretch guarantee(const SpannerSpec& spec) {
  return ConstructionRegistry::global().at(spec).guarantee(spec);
}

std::string guarantee_label(const SpannerSpec& spec) {
  return ConstructionRegistry::global().at(spec).guarantee_label(spec);
}

VerifyFn make_verifier(const SpannerSpec& spec) {
  const Construction& entry = ConstructionRegistry::global().at(spec);
  return entry.verifier == nullptr ? VerifyFn{} : entry.verifier(spec);
}

TreeRule incremental_config(const SpannerSpec& spec) {
  const Construction& entry = ConstructionRegistry::global().at(spec);
  if (entry.rule == nullptr) {
    throw SpecError("construction '" + entry.name + "' has no incremental maintenance support");
  }
  return entry.rule(spec);
}

bool supports_incremental(const SpannerSpec& spec) {
  return ConstructionRegistry::global().at(spec).rule != nullptr;
}

IncrementalSession::IncrementalSession(const Graph& initial, const SpannerSpec& spec)
    : spec_(spec), engine_(initial, incremental_config(spec)) {}

std::unique_ptr<IncrementalSession> open_incremental_session(const Graph& initial,
                                                             const SpannerSpec& spec) {
  return std::make_unique<IncrementalSession>(initial, spec);
}

std::unique_ptr<ReconvergenceSim> open_reconvergence_session(const Graph& initial,
                                                             const SpannerSpec& spec,
                                                             ReconvergeStrategy strategy,
                                                             const FaultConfig& faults) {
  return std::make_unique<ReconvergenceSim>(initial, incremental_config(spec), strategy, faults);
}

}  // namespace remspan::api
