// The public facade: spec grammar round-trips, bad-spec errors, and —
// the load-bearing guarantee — registry builds bit-exact equal to calling
// the underlying constructions directly, for all seven shipped kinds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "baseline/baswana_sen.hpp"
#include "baseline/greedy_spanner.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/graphio.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return largest_component(uniform_unit_ball_graph(150, 4.5, 2, rng).graph);
}

TEST(ApiSpec, SpannerSpecCanonicalStringsRoundTrip) {
  // parse(to_string(s)) == s, and to_string(parse(text)) is canonical.
  const api::SpannerSpec specs[] = {
      api::SpannerSpec::th1(0.5),
      api::SpannerSpec::th1(0.25, TreeAlgorithm::kGreedy),
      api::SpannerSpec::th2(1),
      api::SpannerSpec::th2(3),
      api::SpannerSpec::th3(2),
      api::SpannerSpec::mpr(),
      api::SpannerSpec::greedy(3.0),
      api::SpannerSpec::baswana(2),
      api::SpannerSpec::baswana(3, 42),
      api::SpannerSpec::full(),
  };
  for (const auto& spec : specs) {
    EXPECT_EQ(api::parse_spanner_spec(spec.to_string()), spec) << spec.to_string();
  }
  EXPECT_EQ(api::SpannerSpec::th1(0.5).to_string(), "th1?eps=0.5");
  EXPECT_EQ(api::SpannerSpec::th1(0.25, TreeAlgorithm::kGreedy).to_string(),
            "th1?eps=0.25&tree=greedy");
  EXPECT_EQ(api::SpannerSpec::th2(2).to_string(), "th2?k=2");
  EXPECT_EQ(api::SpannerSpec::baswana(3, 42).to_string(), "baswana?k=3&seed=42");
  EXPECT_EQ(api::SpannerSpec::mpr().to_string(), "mpr");
  EXPECT_EQ(api::SpannerSpec::full().to_string(), "full");
  // Bare kinds parse to their defaults; defaults re-print canonically.
  EXPECT_EQ(api::parse_spanner_spec("th2").to_string(), "th2?k=1");
  EXPECT_EQ(api::parse_spanner_spec("th3").to_string(), "th3?k=2");
  EXPECT_EQ(api::parse_spanner_spec("baswana").to_string(), "baswana?k=2");
  EXPECT_EQ(api::parse_spanner_spec("greedy").to_string(), "greedy?t=3");
  // Round-trip holds even when the parameter needs more than %g's 6
  // significant digits.
  const api::SpannerSpec precise = api::SpannerSpec::th1(0.1234567);
  EXPECT_EQ(api::parse_spanner_spec(precise.to_string()), precise) << precise.to_string();
}

TEST(ApiSpec, GraphSpecCanonicalStringsRoundTrip) {
  const api::GraphSpec specs[] = {
      api::GraphSpec::udg(500, 6.0),
      api::GraphSpec::udg(400, 7.5, 9),
      api::GraphSpec::gnp(300, 12.0),
      api::GraphSpec::ba(200, 3),
      api::GraphSpec::ws(200, 6, 0.1, 2),
      api::GraphSpec::grid(256),
      api::GraphSpec::file("graphs/x.txt"),
  };
  for (const auto& spec : specs) {
    EXPECT_EQ(api::parse_graph_spec(spec.to_string()), spec) << spec.to_string();
  }
  EXPECT_EQ(api::GraphSpec::udg(500, 6.0).to_string(), "udg?n=500&side=6");
  EXPECT_EQ(api::GraphSpec::udg(400, 7.5, 9).to_string(), "udg?n=400&side=7.5&seed=9");
  EXPECT_EQ(api::GraphSpec::file("g.txt").to_string(), "file:g.txt");
}

TEST(ApiSpec, BadSpecsThrowWithTheOffendingTokenNamed) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)api::parse_spanner_spec(text);
    } catch (const api::SpecError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("th1?eps=banana").find("banana"), std::string::npos);
  EXPECT_NE(message_of("th1?radius=3").find("radius"), std::string::npos);
  EXPECT_NE(message_of("th1?eps=0").find("eps"), std::string::npos);
  EXPECT_NE(message_of("th1?eps=1.5").find("eps"), std::string::npos);
  EXPECT_NE(message_of("th2?k=0").find("k"), std::string::npos);
  EXPECT_NE(message_of("th2?k=-1").find("-1"), std::string::npos);
  EXPECT_NE(message_of("greedy?t=0.5").find("t"), std::string::npos);
  // Non-finite tokens are rejected outright: NaN would otherwise slip past
  // the range checks (NaN < 1.0 is false) and poison the stretch oracle.
  EXPECT_NE(message_of("greedy?t=nan").find("nan"), std::string::npos);
  EXPECT_NE(message_of("th1?eps=inf").find("inf"), std::string::npos);
  EXPECT_THROW((void)api::parse_graph_spec("udg?n=100&side=inf"), api::SpecError);
  EXPECT_NE(message_of("mpr?k=2").find("k"), std::string::npos);
  EXPECT_NE(message_of("th2?k").find("k"), std::string::npos);       // missing '='
  EXPECT_NE(message_of("th2?=1").find("=1"), std::string::npos);     // missing key
  EXPECT_NE(message_of("th!x").find("th!x"), std::string::npos);
  EXPECT_THROW((void)api::parse_spanner_spec(""), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("octahedron?n=5"), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("udg?deg=4"), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("file:"), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("udg?n=0"), api::SpecError);
  // Unknown construction names parse as kCustom (the registry decides) but
  // fail registry lookup with the name in the message.
  const api::SpannerSpec custom = api::parse_spanner_spec("th9?x=1");
  EXPECT_EQ(custom.kind, api::SpannerSpec::Kind::kCustom);
  Rng rng(3);
  const Graph g = connected_gnp(30, 0.2, rng);
  try {
    (void)api::build_spanner(g, custom);
    FAIL() << "unregistered construction should throw";
  } catch (const api::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("th9"), std::string::npos);
  }
}

TEST(ApiSpec, UdgSideMustBePositiveAndFinite) {
  // A side <= 0 once put every point on one spot and built a complete graph.
  for (const char* text : {"udg?n=50&side=0", "udg?n=50&side=-3", "udg?side=-0"}) {
    try {
      (void)api::parse_graph_spec(text);
      ADD_FAILURE() << text << " should be rejected";
    } catch (const api::SpecError& e) {
      EXPECT_STREQ(e.what(), "parameter 'side': must be > 0") << text;
    }
  }
  // Specs built in code (the CLI's --side) are checked when built.
  for (const double side : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)api::build_graph(api::GraphSpec::udg(50, side)), api::SpecError) << side;
  }
  EXPECT_EQ(api::parse_graph_spec("udg?n=50&side=0.5").side, 0.5);
  EXPECT_GT(api::build_graph(api::GraphSpec::udg(50, 0.5)).num_nodes(), 0u);
}

TEST(ApiSpec, BuildGraphMatchesGeneratorsAndReadsFiles) {
  // Generator kinds produce exactly what calling the generator would.
  {
    Rng direct(7);
    const Graph expected =
        largest_component(uniform_unit_ball_graph(200, 5.0, 2, direct).graph);
    const Graph got = api::build_graph(api::GraphSpec::udg(200, 5.0, 7));
    EXPECT_EQ(got.num_nodes(), expected.num_nodes());
    EXPECT_TRUE(std::equal(got.edges().begin(), got.edges().end(), expected.edges().begin(),
                           expected.edges().end()));
  }
  // file: round-trips through the edge-list format.
  const Graph g = test_graph(5);
  const std::string path = "test_api_spec_graph.txt";
  {
    std::ofstream out(path);
    write_edge_list(out, g);
  }
  const Graph loaded = api::build_graph(api::parse_graph_spec("file:" + path));
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_TRUE(std::equal(loaded.edges().begin(), loaded.edges().end(), g.edges().begin(),
                         g.edges().end()));
  std::remove(path.c_str());
  EXPECT_THROW((void)api::build_graph(api::GraphSpec::file("does_not_exist.txt")),
               api::SpecError);
}

TEST(ApiSpec, RegistryBuildsBitExactMatchTheDirectConstructions) {
  const Graph g = test_graph(11);
  // th1, both tree backends.
  EXPECT_EQ(api::build_spanner(g, "th1?eps=0.5").edges,
            build_low_stretch_remote_spanner(g, 0.5, TreeAlgorithm::kMis));
  EXPECT_EQ(api::build_spanner(g, "th1?eps=0.25&tree=greedy").edges,
            build_low_stretch_remote_spanner(g, 0.25, TreeAlgorithm::kGreedy));
  // th2 / th3.
  EXPECT_EQ(api::build_spanner(g, "th2?k=1").edges, build_k_connecting_spanner(g, 1));
  EXPECT_EQ(api::build_spanner(g, "th2?k=2").edges, build_k_connecting_spanner(g, 2));
  EXPECT_EQ(api::build_spanner(g, "th3?k=2").edges, build_2connecting_spanner(g, 2));
  // mpr / greedy / full.
  EXPECT_EQ(api::build_spanner(g, "mpr").edges, olsr_mpr_spanner(g));
  EXPECT_EQ(api::build_spanner(g, "greedy?t=3").edges, greedy_spanner(g, 3.0));
  EXPECT_EQ(api::build_spanner(g, "full").edges, EdgeSet(g, true));
  // baswana: seeded from the spec...
  {
    Rng direct(9);
    EXPECT_EQ(api::build_spanner(g, "baswana?k=2&seed=9").edges,
              baswana_sen_spanner(g, 2, direct));
  }
  // ...or drawing from a caller-threaded RNG (remspan_tool's shared seed).
  {
    Rng direct(4);
    const EdgeSet first = baswana_sen_spanner(g, 2, direct);
    const EdgeSet second = baswana_sen_spanner(g, 3, direct);
    Rng threaded(4);
    api::BuildContext ctx;
    ctx.rng = &threaded;
    EXPECT_EQ(api::build_spanner(g, "baswana?k=2", ctx).edges, first);
    EXPECT_EQ(api::build_spanner(g, "baswana?k=3", ctx).edges, second);
  }
  // SpannerBuildInfo flows through for the tree-union constructions.
  SpannerBuildInfo direct_info;
  (void)build_k_connecting_spanner(g, 1, &direct_info);
  const api::SpannerResult res = api::build_spanner(g, "th2?k=1");
  EXPECT_EQ(res.info.sum_tree_edges, direct_info.sum_tree_edges);
  EXPECT_EQ(res.info.max_tree_edges, direct_info.max_tree_edges);
}

TEST(ApiSpec, GuaranteesLabelsAndVerifiersMatchTheConstructions) {
  const Graph g = test_graph(13);
  const auto th1 = api::build_spanner(g, "th1?eps=0.5");
  EXPECT_DOUBLE_EQ(th1.guarantee.alpha, 1.5);
  EXPECT_DOUBLE_EQ(th1.guarantee.beta, 0.0);
  EXPECT_EQ(th1.guarantee_label, "remote (1.50,0.00)");
  ASSERT_NE(th1.verify, nullptr);
  EXPECT_TRUE(th1.verify(g, th1.edges, {}).satisfied);

  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("th2?k=2")),
            "2-connecting remote (1,0)");
  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("th3")),
            "2-connecting remote (2,-1)");
  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("mpr")), "remote (1,0) via OLSR MPR");
  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("baswana?k=3")), "classical (5,0)");
  EXPECT_DOUBLE_EQ(api::guarantee(api::parse_spanner_spec("greedy?t=3")).alpha, 3.0);

  // full has nothing to verify; every other kind has an oracle.
  EXPECT_EQ(api::make_verifier(api::parse_spanner_spec("full")), nullptr);
  EXPECT_NE(api::make_verifier(api::parse_spanner_spec("th2")), nullptr);
  const auto th2 = api::build_spanner(g, "th2?k=1");
  api::VerifyOptions opts;
  opts.sample_pairs = 100;
  EXPECT_TRUE(th2.verify(g, th2.edges, opts).satisfied);
}

TEST(ApiSpec, CapabilityMapsMatchTheDynamicAndProtocolConfigs) {
  // Every tree-union construction has a TreeRule, which is what the
  // incremental engine, the service and the protocol sessions all run on.
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("th1")));
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("th2")));
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("th3")));
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("mpr")));
  EXPECT_FALSE(api::supports_incremental(api::parse_spanner_spec("baswana")));
  EXPECT_FALSE(api::supports_incremental(api::parse_spanner_spec("greedy")));
  EXPECT_FALSE(api::supports_incremental(api::parse_spanner_spec("full")));

  const TreeRule inc = api::incremental_config(api::parse_spanner_spec("th2?k=2"));
  EXPECT_EQ(inc, TreeRule::k_connecting(2));
  EXPECT_EQ(inc.kind, TreeRule::Kind::kGreedyK);
  EXPECT_EQ(inc.k, 2u);
  EXPECT_EQ(inc.dirty_radius(), 1u);
  const TreeRule th1 = api::incremental_config(api::parse_spanner_spec("th1?eps=0.5"));
  EXPECT_EQ(th1.kind, TreeRule::Kind::kMis);
  EXPECT_EQ(th1.r, domination_radius_for_eps(0.5));
  const TreeRule th1_greedy =
      api::incremental_config(api::parse_spanner_spec("th1?eps=0.25&tree=greedy"));
  EXPECT_EQ(th1_greedy, TreeRule::r_beta(5, 1, TreeAlgorithm::kGreedy));
  EXPECT_EQ(th1_greedy.dirty_radius(), 5u);
  EXPECT_EQ(api::incremental_config(api::parse_spanner_spec("th3")), TreeRule::two_connecting(2));

  const TreeRule mpr = api::incremental_config(api::parse_spanner_spec("mpr"));
  EXPECT_EQ(mpr.kind, TreeRule::Kind::kMpr);
  EXPECT_EQ(mpr.dirty_radius(), 1u);
  EXPECT_THROW((void)api::incremental_config(api::parse_spanner_spec("greedy")), api::SpecError);
  EXPECT_THROW((void)api::incremental_config(api::parse_spanner_spec("full")), api::SpecError);
}

TEST(ApiSpec, IncrementalSessionTracksTheDirectEngine) {
  const Graph g = test_graph(17);
  const api::SpannerSpec spec = api::parse_spanner_spec("th2?k=1");
  const auto session = api::open_incremental_session(g, spec);
  // (edge_list compare: the session maintains its own snapshot copy of g.)
  EXPECT_EQ(session->spanner().edge_list(), build_k_connecting_spanner(g, 1).edge_list());
  // A mixed batch stays bit-exact vs a from-scratch registry build.
  std::vector<GraphEvent> batch;
  const Edge e0 = g.edge(0);
  batch.push_back(GraphEvent::edge_down(e0.u, e0.v));
  batch.push_back(GraphEvent::edge_up(0, g.num_nodes() - 1));
  const ChurnBatchStats stats = session->apply_batch(batch);
  EXPECT_EQ(stats.spanner_edges, session->spanner().size());
  EXPECT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);
  EXPECT_THROW((void)api::open_incremental_session(g, api::parse_spanner_spec("greedy")),
               api::SpecError);
}

TEST(ApiSpec, MprSessionTracksTheRegistryBuild) {
  // The OLSR MPR union is maintained like any other TreeRule: dirty radius
  // 1, bit-exact against the from-scratch registry build after every batch.
  const Graph g = test_graph(19);
  const api::SpannerSpec spec = api::parse_spanner_spec("mpr");
  const auto session = api::open_incremental_session(g, spec);
  EXPECT_EQ(session->spanner().edge_list(), olsr_mpr_spanner(g).edge_list());
  Rng rng(23);
  for (int b = 0; b < 4; ++b) {
    std::vector<GraphEvent> batch;
    const Graph& cur = session->graph();
    const Edge e = cur.edge(static_cast<EdgeId>(rng.uniform(cur.num_edges())));
    batch.push_back(GraphEvent::edge_down(e.u, e.v));
    const auto a = static_cast<NodeId>(rng.uniform(cur.num_nodes()));
    const auto c = static_cast<NodeId>(rng.uniform(cur.num_nodes()));
    if (a != c) batch.push_back(GraphEvent::edge_up(a, c));
    session->apply_batch(batch);
    ASSERT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges)
        << "batch " << b;
  }
}

TEST(ApiSpec, RuntimeRegisteredConstructionIsStringAddressable) {
  // The extension point future constructions use: register once, reachable
  // from every driver by spec string, parameters included.
  api::Construction toy;
  toy.name = "everyother";
  toy.summary = "keeps every stride-th edge (test construction)";
  toy.build_edges = [](const Graph& g, const api::SpannerSpec& spec, const api::BuildContext&) {
    std::size_t stride = 2;
    if (const auto v = spec.custom_param("stride")) stride = std::stoul(*v);
    EdgeSet h(g);
    for (EdgeId id = 0; id < g.num_edges(); id += stride) h.insert(id);
    return h;
  };
  toy.guarantee = [](const api::SpannerSpec&) { return Stretch{0.0, 0.0}; };
  toy.guarantee_label = [](const api::SpannerSpec&) { return std::string("toy"); };
  api::ConstructionRegistry::global().register_construction(toy);

  Rng rng(19);
  const Graph g = connected_gnp(40, 0.15, rng);
  const auto res = api::build_spanner(g, "everyother?stride=3");
  std::size_t expected = 0;
  for (EdgeId id = 0; id < g.num_edges(); id += 3) ++expected;
  EXPECT_EQ(res.edges.size(), expected);
  EXPECT_EQ(res.guarantee_label, "toy");
  EXPECT_EQ(res.verify, nullptr);
  // Round-trip of the custom spec string.
  const api::SpannerSpec spec = api::parse_spanner_spec("everyother?stride=3");
  EXPECT_EQ(spec.to_string(), "everyother?stride=3");
  EXPECT_EQ(api::parse_spanner_spec(spec.to_string()), spec);
  // Duplicate registration is rejected.
  EXPECT_THROW(api::ConstructionRegistry::global().register_construction(toy), api::SpecError);
}

}  // namespace
}  // namespace remspan
