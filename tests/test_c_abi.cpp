// The versioned C ABI, driven exclusively through the public C header —
// no C++ library headers are included here, so everything these tests see
// is what an external C driver sees: build-by-spec-string, edge
// extraction, session event replay, and the error paths.
#include <remspan/remspan.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// A two-triangle bridge graph as a raw endpoint array.
const uint32_t kBridgeEdges[] = {0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 3, 5, 4, 5};
constexpr size_t kBridgeEdgeCount = 7;
constexpr uint32_t kBridgeNodes = 6;

TEST(CApi, VersionAndInitialErrorState) {
  EXPECT_EQ(remspan_abi_version(), REMSPAN_ABI_VERSION);
  EXPECT_STREQ(remspan_last_error(), "");
}

TEST(CApi, GraphFromEdgesAndQueries) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_from_edges(kBridgeNodes, kBridgeEdges, kBridgeEdgeCount, &g),
            REMSPAN_OK);
  EXPECT_EQ(remspan_graph_num_nodes(g), kBridgeNodes);
  EXPECT_EQ(remspan_graph_num_edges(g), kBridgeEdgeCount);
  std::vector<uint32_t> out(2 * kBridgeEdgeCount, 0);
  EXPECT_EQ(remspan_graph_edges(g, out.data(), kBridgeEdgeCount), kBridgeEdgeCount);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 1u);
  remspan_graph_free(g);
}

TEST(CApi, GraphFromEdgesRejectsBadInput) {
  remspan_graph_t* g = nullptr;
  const uint32_t self_loop[] = {1, 1};
  EXPECT_EQ(remspan_graph_from_edges(4, self_loop, 1, &g), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(remspan_last_error()).find("self-loop"), std::string::npos);
  const uint32_t out_of_range[] = {0, 9};
  EXPECT_EQ(remspan_graph_from_edges(4, out_of_range, 1, &g), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(remspan_graph_from_edges(4, nullptr, 1, &g), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(g, nullptr);  // out-pointer untouched on failure
}

TEST(CApi, GenerateLoadAndIoErrors) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_generate("gnp?n=60&deg=6&seed=3", &g), REMSPAN_OK);
  EXPECT_EQ(remspan_graph_num_nodes(g), 60u);
  remspan_graph_free(g);

  EXPECT_EQ(remspan_graph_generate("dodecahedron?n=5", &g), REMSPAN_ERR_PARSE);
  EXPECT_NE(std::string(remspan_last_error()).find("dodecahedron"), std::string::npos);
  EXPECT_EQ(remspan_graph_generate(nullptr, &g), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(remspan_graph_load("this_file_does_not_exist.txt", &g), REMSPAN_ERR_IO);

  const char* path = "test_c_abi_graph.txt";
  {
    std::ofstream out(path);
    out << "n 3\n0 1\n1 2\n";
  }
  ASSERT_EQ(remspan_graph_load(path, &g), REMSPAN_OK);
  EXPECT_EQ(remspan_graph_num_nodes(g), 3u);
  EXPECT_EQ(remspan_graph_num_edges(g), 2u);
  remspan_graph_free(g);
  std::remove(path);
}

TEST(CApi, BuildBySpecStringQueryAndVerify) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_generate("udg?n=150&side=4&seed=5", &g), REMSPAN_OK);

  remspan_spanner_t* h = nullptr;
  ASSERT_EQ(remspan_spanner_build(g, "th2?k=2", &h), REMSPAN_OK);
  EXPECT_STREQ(remspan_spanner_spec(h), "th2?k=2");
  const size_t edges = remspan_spanner_num_edges(h);
  EXPECT_GT(edges, 0u);
  EXPECT_LE(edges, remspan_graph_num_edges(g));

  double alpha = -1, beta = -1;
  ASSERT_EQ(remspan_spanner_guarantee(h, &alpha, &beta), REMSPAN_OK);
  EXPECT_DOUBLE_EQ(alpha, 1.0);
  EXPECT_DOUBLE_EQ(beta, 0.0);

  // Every extracted edge is contained, in canonical order.
  std::vector<uint32_t> out(2 * edges, 0);
  ASSERT_EQ(remspan_spanner_edges(h, out.data(), edges), edges);
  for (size_t i = 0; i < edges; ++i) {
    EXPECT_LT(out[2 * i], out[2 * i + 1]);
    EXPECT_EQ(remspan_spanner_contains(h, out[2 * i], out[2 * i + 1]), 1);
    EXPECT_EQ(remspan_spanner_contains(h, out[2 * i + 1], out[2 * i]), 1);
  }
  EXPECT_EQ(remspan_spanner_contains(h, 0, 0), 0);

  int satisfied = 0;
  double max_ratio = 0.0;
  ASSERT_EQ(remspan_spanner_verify(g, h, 1, &satisfied, &max_ratio), REMSPAN_OK);
  EXPECT_EQ(satisfied, 1);
  EXPECT_GE(max_ratio, 1.0);

  // Freeing the graph first is allowed: the spanner keeps it alive.
  remspan_graph_free(g);
  EXPECT_GT(remspan_spanner_num_edges(h), 0u);
  remspan_spanner_free(h);
}

TEST(CApi, BuildAndVerifyErrorPaths) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_from_edges(kBridgeNodes, kBridgeEdges, kBridgeEdgeCount, &g),
            REMSPAN_OK);
  remspan_spanner_t* h = nullptr;
  EXPECT_EQ(remspan_spanner_build(g, "th2?k=banana", &h), REMSPAN_ERR_PARSE);
  EXPECT_NE(std::string(remspan_last_error()).find("banana"), std::string::npos);
  EXPECT_EQ(remspan_spanner_build(g, "th9", &h), REMSPAN_ERR_PARSE);
  EXPECT_EQ(remspan_spanner_build(nullptr, "th2", &h), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(h, nullptr);

  // "full" has nothing to verify.
  ASSERT_EQ(remspan_spanner_build(g, "full", &h), REMSPAN_OK);
  int satisfied = 0;
  EXPECT_EQ(remspan_spanner_verify(g, h, 1, &satisfied, nullptr), REMSPAN_ERR_UNSUPPORTED);

  // Verifying against a different topology is rejected...
  remspan_graph_t* other = nullptr;
  ASSERT_EQ(remspan_graph_generate("gnp?n=30&deg=4", &other), REMSPAN_OK);
  EXPECT_EQ(remspan_spanner_verify(other, h, 1, &satisfied, nullptr),
            REMSPAN_ERR_INVALID_ARGUMENT);
  remspan_graph_free(other);
  remspan_spanner_free(h);

  // ...but a distinct handle with the identical topology works, even after
  // the original graph handle is gone.
  ASSERT_EQ(remspan_spanner_build(g, "th2?k=1", &h), REMSPAN_OK);
  remspan_graph_free(g);
  remspan_graph_t* twin = nullptr;
  ASSERT_EQ(remspan_graph_from_edges(kBridgeNodes, kBridgeEdges, kBridgeEdgeCount, &twin),
            REMSPAN_OK);
  double ratio = 0.0;
  EXPECT_EQ(remspan_spanner_verify(twin, h, 1, &satisfied, &ratio), REMSPAN_OK);
  EXPECT_EQ(satisfied, 1);
  remspan_graph_free(twin);
  remspan_spanner_free(h);
}

/// Replays a few batches through a session of `spec`; after each, the
/// maintained spanner must equal a from-scratch rebuild, edge for edge.
void expect_session_replay_bit_exact(const char* spec) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_generate("udg?n=120&side=4&seed=8", &g), REMSPAN_OK);
  remspan_session_t* session = nullptr;
  ASSERT_EQ(remspan_session_open(g, spec, &session), REMSPAN_OK);

  // Initial state equals a from-scratch build.
  remspan_spanner_t* initial = nullptr;
  ASSERT_EQ(remspan_spanner_build(g, spec, &initial), REMSPAN_OK);
  EXPECT_EQ(remspan_session_spanner_num_edges(session), remspan_spanner_num_edges(initial));
  remspan_spanner_free(initial);

  // Replay a few batches; after each, the maintained spanner must equal a
  // from-scratch rebuild on the session's snapshot, edge for edge.
  const uint32_t n = remspan_graph_num_nodes(g);
  for (uint32_t round = 0; round < 3; ++round) {
    std::vector<remspan_event_t> batch;
    std::vector<uint32_t> first(2, 0);
    (void)remspan_graph_edges(g, first.data(), 1);
    batch.push_back({REMSPAN_EVENT_EDGE_DOWN, first[0], first[1]});
    batch.push_back({REMSPAN_EVENT_EDGE_UP, round, n - 1 - round});
    batch.push_back({REMSPAN_EVENT_NODE_DOWN, (round * 7 + 3) % n, 0});
    remspan_batch_stats_t stats;
    ASSERT_EQ(remspan_session_apply(session, batch.data(), batch.size(), &stats), REMSPAN_OK);
    EXPECT_EQ(stats.spanner_edges, remspan_session_spanner_num_edges(session));

    remspan_graph_t* snapshot = nullptr;
    ASSERT_EQ(remspan_session_graph(session, &snapshot), REMSPAN_OK);
    remspan_spanner_t* scratch = nullptr;
    ASSERT_EQ(remspan_spanner_build(snapshot, spec, &scratch), REMSPAN_OK);
    const size_t count = remspan_session_spanner_num_edges(session);
    ASSERT_EQ(count, remspan_spanner_num_edges(scratch));
    std::vector<uint32_t> a(2 * count, 0), b(2 * count, 1);
    EXPECT_EQ(remspan_session_spanner_edges(session, a.data(), count), count);
    EXPECT_EQ(remspan_spanner_edges(scratch, b.data(), count), count);
    EXPECT_EQ(a, b) << spec << " round " << round;
    remspan_spanner_free(scratch);
    remspan_graph_free(snapshot);
  }
  remspan_session_free(session);
  remspan_graph_free(g);
}

TEST(CApi, SessionEventReplayStaysBitExact) { expect_session_replay_bit_exact("th2?k=1"); }

TEST(CApi, MprSessionEventReplayStaysBitExact) { expect_session_replay_bit_exact("mpr"); }

TEST(CApi, SessionErrorPaths) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_from_edges(kBridgeNodes, kBridgeEdges, kBridgeEdgeCount, &g),
            REMSPAN_OK);
  remspan_session_t* session = nullptr;
  EXPECT_EQ(remspan_session_open(g, "greedy", &session), REMSPAN_ERR_UNSUPPORTED);
  EXPECT_NE(std::string(remspan_last_error()).find("greedy"), std::string::npos);
  EXPECT_EQ(remspan_session_open(g, "th2?bogus=1", &session), REMSPAN_ERR_PARSE);
  // "th9" parses as a custom spec but is not registered: the registry lookup
  // must surface as a parse error, not escape the ABI as a C++ exception.
  EXPECT_EQ(remspan_session_open(g, "th9", &session), REMSPAN_ERR_PARSE);
  EXPECT_NE(std::string(remspan_last_error()).find("th9"), std::string::npos);
  EXPECT_EQ(session, nullptr);

  ASSERT_EQ(remspan_session_open(g, "th3?k=2", &session), REMSPAN_OK);
  // Malformed events are rejected atomically: nothing is applied.
  const size_t before = remspan_session_spanner_num_edges(session);
  const remspan_event_t bad_batch[] = {
      {REMSPAN_EVENT_EDGE_DOWN, 0, 1, },
      {REMSPAN_EVENT_EDGE_UP, 2, 99, },  // out of range
  };
  EXPECT_EQ(remspan_session_apply(session, bad_batch, 2, nullptr),
            REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(remspan_session_spanner_num_edges(session), before);
  const remspan_event_t self_loop[] = {{REMSPAN_EVENT_EDGE_UP, 2, 2}};
  EXPECT_EQ(remspan_session_apply(session, self_loop, 1, nullptr),
            REMSPAN_ERR_INVALID_ARGUMENT);
  const remspan_event_t bad_kind[] = {{99, 0, 1}};
  EXPECT_EQ(remspan_session_apply(session, bad_kind, 1, nullptr),
            REMSPAN_ERR_INVALID_ARGUMENT);
  // An empty batch is fine.
  EXPECT_EQ(remspan_session_apply(session, nullptr, 0, nullptr), REMSPAN_OK);
  remspan_session_free(session);
  remspan_graph_free(g);
}

TEST(CApiService, LifecycleSubmitFlushAndQueries) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_generate("udg?n=120&side=4&seed=8", &g), REMSPAN_OK);

  remspan_service_config_t cfg;
  remspan_service_config_default(&cfg);
  EXPECT_GT(cfg.max_tenants, 0u);
  cfg.worker_threads = 0;  // deterministic mode
  remspan_service_t* service = nullptr;
  ASSERT_EQ(remspan_service_create(&cfg, &service), REMSPAN_OK);

  uint32_t tenant = 99;
  ASSERT_EQ(remspan_service_open_tenant(service, g, "th2?k=1", &tenant), REMSPAN_OK);
  EXPECT_EQ(remspan_service_epoch(service, tenant), 0u);

  // The epoch-0 snapshot is the from-scratch build.
  remspan_spanner_t* scratch = nullptr;
  ASSERT_EQ(remspan_spanner_build(g, "th2?k=1", &scratch), REMSPAN_OK);
  const size_t count = remspan_service_spanner_num_edges(service, tenant);
  ASSERT_EQ(count, remspan_spanner_num_edges(scratch));
  std::vector<uint32_t> a(2 * count, 0), b(2 * count, 1);
  EXPECT_EQ(remspan_service_spanner_edges(service, tenant, a.data(), count), count);
  EXPECT_EQ(remspan_spanner_edges(scratch, b.data(), count), count);
  EXPECT_EQ(a, b);
  EXPECT_EQ(remspan_service_contains(service, tenant, a[0], a[1]), 1);
  remspan_spanner_free(scratch);

  // Submit a batch; nothing is applied until flush, then the epoch advances.
  const uint32_t n = remspan_graph_num_nodes(g);
  const remspan_event_t batch[] = {{REMSPAN_EVENT_EDGE_UP, 0, n - 1, },
                                   {REMSPAN_EVENT_NODE_DOWN, 3, 0, }};
  uint32_t admission = 99;
  ASSERT_EQ(remspan_service_submit(service, tenant, batch, 2, &admission), REMSPAN_OK);
  EXPECT_EQ(admission, REMSPAN_ADMIT_ACCEPTED);
  EXPECT_EQ(remspan_service_epoch(service, tenant), 0u);
  ASSERT_EQ(remspan_service_flush(service, tenant), REMSPAN_OK);
  EXPECT_EQ(remspan_service_epoch(service, tenant), 1u);

  double ratio = 0.0;
  ASSERT_EQ(remspan_service_stretch(service, tenant, 64, 1, &ratio), REMSPAN_OK);
  EXPECT_GE(ratio, 1.0);

  remspan_tenant_stats_t ts;
  ASSERT_EQ(remspan_service_tenant_stats(service, tenant, &ts), REMSPAN_OK);
  EXPECT_EQ(ts.epoch, 1u);
  EXPECT_EQ(ts.events_submitted, 2u);
  EXPECT_EQ(ts.batches_applied, 1u);
  EXPECT_EQ(ts.queue_depth, 0u);

  remspan_service_totals_t totals;
  ASSERT_EQ(remspan_service_stats(service, &totals), REMSPAN_OK);
  EXPECT_EQ(totals.tenants_open, 1u);
  EXPECT_EQ(totals.events_submitted, 2u);

  ASSERT_EQ(remspan_service_close_tenant(service, tenant), REMSPAN_OK);
  ASSERT_EQ(remspan_service_stats(service, &totals), REMSPAN_OK);
  EXPECT_EQ(totals.tenants_open, 0u);
  EXPECT_EQ(totals.tenants_closed, 1u);
  remspan_service_free(service);
  remspan_graph_free(g);
}

TEST(CApiService, ErrorPathsAndAdmission) {
  remspan_graph_t* g = nullptr;
  ASSERT_EQ(remspan_graph_from_edges(kBridgeNodes, kBridgeEdges, kBridgeEdgeCount, &g),
            REMSPAN_OK);

  remspan_service_t* service = nullptr;
  remspan_service_config_t cfg;
  remspan_service_config_default(&cfg);
  cfg.max_tenants = 0;
  EXPECT_EQ(remspan_service_create(&cfg, &service), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(service, nullptr);

  remspan_service_config_default(&cfg);
  cfg.worker_threads = 0;
  cfg.tenant_queue_budget = 3;
  ASSERT_EQ(remspan_service_create(&cfg, &service), REMSPAN_OK);

  uint32_t tenant = 0;
  EXPECT_EQ(remspan_service_open_tenant(service, g, "baswana", &tenant),
            REMSPAN_ERR_UNSUPPORTED);
  EXPECT_EQ(remspan_service_open_tenant(service, g, "th2?k=banana", &tenant),
            REMSPAN_ERR_PARSE);
  EXPECT_EQ(remspan_service_open_tenant(nullptr, g, "th2", &tenant),
            REMSPAN_ERR_INVALID_ARGUMENT);

  ASSERT_EQ(remspan_service_open_tenant(service, g, "th2?k=1", &tenant), REMSPAN_OK);

  // Malformed events are rejected atomically, before admission control.
  const remspan_event_t bad[] = {{REMSPAN_EVENT_EDGE_UP, 2, 99, }};
  uint32_t admission = 77;
  EXPECT_EQ(remspan_service_submit(service, tenant, bad, 1, &admission),
            REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(admission, 77u);  // out-pointer untouched on failure

  // Over the 3-event tenant budget in one go: REMSPAN_OK, verdict says back off.
  const remspan_event_t big[] = {{REMSPAN_EVENT_EDGE_UP, 0, 3, },
                                 {REMSPAN_EVENT_EDGE_UP, 0, 4, },
                                 {REMSPAN_EVENT_EDGE_UP, 0, 5, },
                                 {REMSPAN_EVENT_EDGE_UP, 1, 3, }};
  ASSERT_EQ(remspan_service_submit(service, tenant, big, 4, &admission), REMSPAN_OK);
  EXPECT_EQ(admission, REMSPAN_ADMIT_RETRY_AFTER);
  remspan_tenant_stats_t ts;
  ASSERT_EQ(remspan_service_tenant_stats(service, tenant, &ts), REMSPAN_OK);
  EXPECT_EQ(ts.queue_depth, 0u);
  EXPECT_EQ(ts.rejected_retry_after, 1u);

  // Unknown tenant ids: statuses fail, accessors return neutral values.
  EXPECT_EQ(remspan_service_flush(service, 12345), REMSPAN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(remspan_service_epoch(service, 12345), 0u);
  EXPECT_EQ(remspan_service_contains(service, 12345, 0, 1), 0);
  EXPECT_EQ(remspan_service_spanner_num_edges(service, 12345), 0u);
  EXPECT_EQ(remspan_service_tenant_stats(service, 12345, &ts),
            REMSPAN_ERR_INVALID_ARGUMENT);

  remspan_service_free(service);
  remspan_graph_free(g);
}

}  // namespace
