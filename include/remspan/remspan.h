/* remspan — stable C ABI over the remote-spanner library.
 *
 * Pure C99: no C++ types leak through this header; every object is an
 * opaque handle created and destroyed by the library. Build against the
 * remspan_c shared library. All functions are thread-compatible (distinct
 * handles may be used from distinct threads; a single handle must not be
 * shared without external synchronization).
 *
 * Error model: functions that can fail return remspan_status_t.
 * REMSPAN_OK is 0; on any other status the thread-local message behind
 * remspan_last_error() describes the failure. Out-pointers are written
 * only on REMSPAN_OK.
 *
 * Spec strings: constructions and generated graphs are addressed by the
 * canonical spec grammar of docs/API.md, e.g. "th2?k=2", "th1?eps=0.5",
 * "mpr", and "udg?n=500&side=6", "gnp?n=300&deg=12", "file:graph.txt".
 *
 * Versioning: REMSPAN_ABI_VERSION is bumped on every breaking change of
 * this header or the semantics behind it; remspan_abi_version() reports
 * the version the loaded library implements. Additive changes (new
 * functions, new enum values at the end) do not bump it.
 *
 * Minimal round-trip:
 *
 *   remspan_graph_t* g = NULL;
 *   remspan_graph_generate("udg?n=400&side=6", &g);
 *   remspan_spanner_t* h = NULL;
 *   remspan_spanner_build(g, "th2?k=2", &h);
 *   printf("%zu of %zu edges\n", remspan_spanner_num_edges(h),
 *          remspan_graph_num_edges(g));
 *   remspan_spanner_free(h);
 *   remspan_graph_free(g);
 */
#ifndef REMSPAN_REMSPAN_H_
#define REMSPAN_REMSPAN_H_

#include <stddef.h>
#include <stdint.h>

#if defined(_WIN32)
#ifdef REMSPAN_BUILDING /* defined by the remspan_c target itself */
#define REMSPAN_API __declspec(dllexport)
#else
#define REMSPAN_API __declspec(dllimport)
#endif
#else
#define REMSPAN_API __attribute__((visibility("default")))
#endif

#ifdef __cplusplus
extern "C" {
#endif

/* Bumped on breaking ABI changes; see the versioning note above. */
#define REMSPAN_ABI_VERSION 1u

/* ABI version implemented by the loaded library. A driver built against
 * this header should check it equals REMSPAN_ABI_VERSION at startup. */
REMSPAN_API uint32_t remspan_abi_version(void);

typedef enum remspan_status {
  REMSPAN_OK = 0,
  REMSPAN_ERR_INVALID_ARGUMENT = 1, /* null/out-of-range argument */
  REMSPAN_ERR_PARSE = 2,            /* malformed spec string */
  REMSPAN_ERR_IO = 3,               /* unreadable/malformed file */
  REMSPAN_ERR_UNSUPPORTED = 4,      /* construction lacks the capability */
  REMSPAN_ERR_INTERNAL = 5          /* invariant failure inside the library */
} remspan_status_t;

/* Message for the most recent failure on the calling thread ("" if none).
 * The pointer stays valid until the next failing call on this thread. */
REMSPAN_API const char* remspan_last_error(void);

/* --- graphs ------------------------------------------------------------- */

typedef struct remspan_graph remspan_graph_t;

/* Builds a graph from `num_edges` undirected edges given as (u,v) pairs in
 * `endpoints` (length 2*num_edges, node ids < num_nodes, no self-loops;
 * duplicates merge). */
REMSPAN_API remspan_status_t remspan_graph_from_edges(uint32_t num_nodes,
                                                      const uint32_t* endpoints,
                                                      size_t num_edges,
                                                      remspan_graph_t** out_graph);

/* Loads the plain-text edge-list format of docs/CLI.md. */
REMSPAN_API remspan_status_t remspan_graph_load(const char* path,
                                                remspan_graph_t** out_graph);

/* Generates a graph from a graph-spec string ("udg?n=500&side=6", ...).
 * "file:<path>" specs load like remspan_graph_load. */
REMSPAN_API remspan_status_t remspan_graph_generate(const char* graph_spec,
                                                    remspan_graph_t** out_graph);

REMSPAN_API uint32_t remspan_graph_num_nodes(const remspan_graph_t* graph);
REMSPAN_API size_t remspan_graph_num_edges(const remspan_graph_t* graph);

/* Writes up to `max_edges` edges as (u,v) pairs into `endpoints` (length
 * 2*max_edges) in canonical order; returns how many edges were written. */
REMSPAN_API size_t remspan_graph_edges(const remspan_graph_t* graph, uint32_t* endpoints,
                                       size_t max_edges);

REMSPAN_API void remspan_graph_free(remspan_graph_t* graph);

/* --- spanners ----------------------------------------------------------- */

typedef struct remspan_spanner remspan_spanner_t;

/* Builds the construction a spanner-spec string describes ("th2?k=2", ...)
 * on `graph`. The spanner keeps the graph's topology alive internally, so
 * freeing the graph handle first is allowed. */
REMSPAN_API remspan_status_t remspan_spanner_build(const remspan_graph_t* graph,
                                                   const char* spanner_spec,
                                                   remspan_spanner_t** out_spanner);

/* Canonical spec string of the construction that built this spanner. The
 * pointer stays valid until the spanner is freed. */
REMSPAN_API const char* remspan_spanner_spec(const remspan_spanner_t* spanner);

REMSPAN_API size_t remspan_spanner_num_edges(const remspan_spanner_t* spanner);

/* Writes up to `max_edges` selected edges as (u,v) pairs into `endpoints`
 * (length 2*max_edges) in canonical order; returns the count written. */
REMSPAN_API size_t remspan_spanner_edges(const remspan_spanner_t* spanner,
                                         uint32_t* endpoints, size_t max_edges);

/* 1 if edge {u,v} is in the spanner, 0 otherwise (including unknown edges). */
REMSPAN_API int remspan_spanner_contains(const remspan_spanner_t* spanner, uint32_t u,
                                         uint32_t v);

/* The construction's stretch guarantee d <= alpha * d_G + beta. */
REMSPAN_API remspan_status_t remspan_spanner_guarantee(const remspan_spanner_t* spanner,
                                                       double* out_alpha, double* out_beta);

/* Runs the construction-matching exact oracle against `graph`: either the
 * handle the spanner was built on or any handle with the identical
 * topology (e.g. reloaded from disk, or a session snapshot) — a handle
 * whose node/edge set differs is rejected with
 * REMSPAN_ERR_INVALID_ARGUMENT. On REMSPAN_OK, *out_satisfied is 1/0 and
 * *out_max_ratio the worst measured stretch ratio (out-pointers are
 * optional). Returns REMSPAN_ERR_UNSUPPORTED for constructions with
 * nothing to verify ("full"). `seed` seeds the sampled k-connecting
 * oracle; pass 1 for the default. */
REMSPAN_API remspan_status_t remspan_spanner_verify(const remspan_graph_t* graph,
                                                    const remspan_spanner_t* spanner,
                                                    uint64_t seed, int* out_satisfied,
                                                    double* out_max_ratio);

REMSPAN_API void remspan_spanner_free(remspan_spanner_t* spanner);

/* --- incremental sessions ----------------------------------------------- */

/* A session owns an evolving topology seeded from a graph plus the
 * incremental engine maintaining a construction's spanner across batches
 * of updates (src/dynamic) — bit-exact, after every batch, to building the
 * construction from scratch on the current topology. */
typedef struct remspan_session remspan_session_t;

typedef enum remspan_event_kind {
  REMSPAN_EVENT_EDGE_UP = 0,
  REMSPAN_EVENT_EDGE_DOWN = 1,
  REMSPAN_EVENT_NODE_UP = 2,
  REMSPAN_EVENT_NODE_DOWN = 3
} remspan_event_kind_t;

/* One topology update. Edge events use u and v; node events use u only. */
typedef struct remspan_event {
  uint32_t kind; /* remspan_event_kind_t */
  uint32_t u;
  uint32_t v;
} remspan_event_t;

/* Per-batch accounting, mirroring ChurnBatchStats. */
typedef struct remspan_batch_stats {
  uint64_t version;           /* topology version after the batch */
  size_t applied_events;      /* events that changed stored state */
  size_t inserted_edges;      /* live-edge delta vs previous snapshot */
  size_t removed_edges;
  size_t dirty_roots;         /* roots whose trees were rebuilt */
  size_t rebuilt_tree_edges;  /* tree edges re-added by the rebuilds */
  size_t spanner_edges;       /* |H| after the batch */
  double seconds;             /* wall time of the batch */
} remspan_batch_stats_t;

/* Opens a session maintaining `spanner_spec` over a copy of `graph`'s
 * topology. REMSPAN_ERR_UNSUPPORTED when the construction has no
 * incremental engine (supported: th1, th2, th3, mpr). */
REMSPAN_API remspan_status_t remspan_session_open(const remspan_graph_t* graph,
                                                  const char* spanner_spec,
                                                  remspan_session_t** out_session);

/* Applies one batch of events and patches the maintained spanner.
 * `out_stats` is optional. Node ids must be < the session's node count;
 * edge events must not be self-loops. */
REMSPAN_API remspan_status_t remspan_session_apply(remspan_session_t* session,
                                                   const remspan_event_t* events,
                                                   size_t num_events,
                                                   remspan_batch_stats_t* out_stats);

REMSPAN_API size_t remspan_session_spanner_num_edges(const remspan_session_t* session);

/* Maintained spanner's edges, like remspan_spanner_edges. */
REMSPAN_API size_t remspan_session_spanner_edges(const remspan_session_t* session,
                                                 uint32_t* endpoints, size_t max_edges);

/* Snapshot of the session's current topology as a fresh graph handle (the
 * caller frees it). Useful to rebuild from scratch and cross-check. */
REMSPAN_API remspan_status_t remspan_session_graph(const remspan_session_t* session,
                                                   remspan_graph_t** out_graph);

REMSPAN_API void remspan_session_free(remspan_session_t* session);

/* --- multi-tenant service (additive, ABI version unchanged) ------------- */

/* A long-lived service hosting many tenants, each an open incremental
 * session (spec string + evolving topology + maintained spanner) fronted
 * by a coalescing ingestion queue and an immutable epoch-tagged snapshot.
 * Thread-safety is stronger than the rest of this header: ONE service
 * handle may be used from many threads concurrently — submits, queries
 * and stats never need external synchronization. Queries answer against
 * the tenant's current published epoch and never block a rebuild. */
typedef struct remspan_service remspan_service_t;

/* Admission-control verdict of a submit (REMSPAN_OK was returned; the
 * verdict says whether the batch was actually enqueued). */
typedef enum remspan_admission {
  REMSPAN_ADMIT_ACCEPTED = 0,
  REMSPAN_ADMIT_RETRY_AFTER = 1, /* tenant queue budget full — back off */
  REMSPAN_ADMIT_OVERLOADED = 2   /* service-wide budget full — shed load */
} remspan_admission_t;

typedef struct remspan_service_config {
  uint32_t worker_threads;    /* 0 = synchronous: drains only happen inside
                               * flush/drain calls and the service is fully
                               * deterministic */
  uint32_t max_tenants;
  size_t tenant_queue_budget; /* pending events per tenant before RETRY_AFTER */
  size_t global_queue_budget; /* pending events service-wide before OVERLOADED */
  size_t max_batch_events;    /* max coalesced events per published epoch */
} remspan_service_config_t;

/* Fills `out_config` with the library defaults (a no-op on NULL). */
REMSPAN_API void remspan_service_config_default(remspan_service_config_t* out_config);

/* Creates a service; NULL `config` means defaults. */
REMSPAN_API remspan_status_t remspan_service_create(const remspan_service_config_t* config,
                                                    remspan_service_t** out_service);

/* Opens a tenant maintaining `spanner_spec` over a copy of `graph`'s
 * topology and publishes its epoch-0 snapshot. REMSPAN_ERR_UNSUPPORTED for
 * constructions without incremental maintenance (supported: th1, th2,
 * th3, mpr); REMSPAN_ERR_INVALID_ARGUMENT at the tenant capacity limit. */
REMSPAN_API remspan_status_t remspan_service_open_tenant(remspan_service_t* service,
                                                         const remspan_graph_t* graph,
                                                         const char* spanner_spec,
                                                         uint32_t* out_tenant);

/* Graceful eviction: drains the tenant's accepted events (publishing final
 * epochs), then removes it. */
REMSPAN_API remspan_status_t remspan_service_close_tenant(remspan_service_t* service,
                                                          uint32_t tenant);

/* Admission-controlled ingestion of one event batch (all-or-nothing: a
 * rejected batch changes nothing but the rejection counter). On REMSPAN_OK
 * *out_admission holds the remspan_admission_t verdict (out-pointer
 * optional). Event validation is per remspan_session_apply. */
REMSPAN_API remspan_status_t remspan_service_submit(remspan_service_t* service, uint32_t tenant,
                                                    const remspan_event_t* events,
                                                    size_t num_events,
                                                    uint32_t* out_admission);

/* Drains the tenant's queue to empty on the calling thread, publishing an
 * epoch per coalesced batch. */
REMSPAN_API remspan_status_t remspan_service_flush(remspan_service_t* service, uint32_t tenant);

/* remspan_service_flush over every tenant. */
REMSPAN_API remspan_status_t remspan_service_drain(remspan_service_t* service);

/* Current published epoch of the tenant (0 is the open-time build;
 * monotone non-decreasing). Returns 0 for unknown tenants. */
REMSPAN_API uint64_t remspan_service_epoch(const remspan_service_t* service, uint32_t tenant);

/* 1 if {u,v} is in the tenant's current-epoch spanner, 0 otherwise
 * (unknown tenants/nodes/edges included). */
REMSPAN_API int remspan_service_contains(const remspan_service_t* service, uint32_t tenant,
                                         uint32_t u, uint32_t v);

REMSPAN_API size_t remspan_service_spanner_num_edges(const remspan_service_t* service,
                                                     uint32_t tenant);

/* Current-epoch spanner edges, like remspan_spanner_edges. */
REMSPAN_API size_t remspan_service_spanner_edges(const remspan_service_t* service,
                                                 uint32_t tenant, uint32_t* endpoints,
                                                 size_t max_edges);

/* Sampled remote-stretch probe against the current epoch: worst
 * d_{H_u}(u,v) / d_G(u,v) over `pairs` seeded draws (1.0 when no draw hits
 * a connected nonadjacent pair). Deterministic in (pairs, seed, epoch). */
REMSPAN_API remspan_status_t remspan_service_stretch(const remspan_service_t* service,
                                                     uint32_t tenant, size_t pairs,
                                                     uint64_t seed, double* out_max_ratio);

/* Point-in-time per-tenant accounting (cumulative unless noted). */
typedef struct remspan_tenant_stats {
  uint64_t epoch;
  uint64_t graph_version;
  size_t queue_depth; /* current pending coalesced events */
  uint64_t events_submitted;
  uint64_t events_accepted;
  uint64_t events_coalesced; /* accepted events absorbed before the engine */
  uint64_t events_applied;
  uint64_t batches_applied;
  uint64_t rejected_retry_after;
  uint64_t rejected_overloaded;
  size_t spanner_edges;
} remspan_tenant_stats_t;

REMSPAN_API remspan_status_t remspan_service_tenant_stats(const remspan_service_t* service,
                                                          uint32_t tenant,
                                                          remspan_tenant_stats_t* out_stats);

/* Service-wide aggregates over open tenants plus lifetime totals. */
typedef struct remspan_service_totals {
  size_t tenants_open;
  uint64_t tenants_opened; /* lifetime */
  uint64_t tenants_closed; /* lifetime */
  size_t queue_depth;
  uint64_t epochs_published;
  uint64_t events_submitted;
  uint64_t events_accepted;
  uint64_t events_coalesced;
  uint64_t events_applied;
  uint64_t batches_applied;
  uint64_t rejected_retry_after;
  uint64_t rejected_overloaded;
} remspan_service_totals_t;

REMSPAN_API remspan_status_t remspan_service_stats(const remspan_service_t* service,
                                                   remspan_service_totals_t* out_stats);

/* Stops the workers and frees every tenant. Snapshots already handed out
 * stay valid; call remspan_service_drain first for a graceful wind-down. */
REMSPAN_API void remspan_service_free(remspan_service_t* service);

/* --- observability (additive, ABI version unchanged) -------------------- */

/* Turns the process-wide metrics registry on (non-zero) or off (zero).
 * Disabled is the default and costs one predicted branch per hook site;
 * enabling never changes any computed result. Collected values survive a
 * disable/enable cycle. Do not toggle while another thread is inside a
 * library call. */
REMSPAN_API remspan_status_t remspan_metrics_enable(int enable);

/* JSON snapshot of every collected counter, gauge and histogram (schema:
 * docs/OBSERVABILITY.md). Valid JSON with empty sections when metrics were
 * never enabled. The pointer is owned by the library and valid on the
 * calling thread until the next remspan_metrics_snapshot call; returns ""
 * on internal failure. */
REMSPAN_API const char* remspan_metrics_snapshot(void);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* REMSPAN_REMSPAN_H_ */
