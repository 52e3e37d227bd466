// E3 — Theorem 2 / Section 3.2: on the random unit disk graph (Poisson in
// a fixed square) the (1,0)-remote-spanner has O(n^{4/3} log n) expected
// edges, against Omega(n^2) for the full topology. Measured: edges vs n
// with a log-log power-law fit of the growth exponent.
//
// Expected shape: full-topology exponent ~2, remote-spanner exponent well
// below it, compatible with 4/3 (+ log factor); the k = 2 variant scales
// the same way with a k^{2/3} size factor.
#include "api/registry.hpp"
#include "bench_common.hpp"
#include "util/fit.hpp"
#include "util/thread_pool.hpp"

#include <cmath>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#endif

using namespace remspan;
using namespace remspan::bench;

namespace {

/// Peak resident set size in bytes (0 where getrusage is unavailable).
double peak_rss_bytes() {
#if __has_include(<sys/resource.h>)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#ifdef __APPLE__
    return static_cast<double>(usage.ru_maxrss);  // macOS reports bytes
#else
    return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux/BSD: KiB
#endif
  }
#endif
  return 0.0;
}

/// Scale build (opt-in via --scale-n): one constant-density UDG (average
/// degree ~10, side grows with sqrt(n) so density is fixed and the
/// per-ball work is n-independent) and one th2?k=1 build through the
/// library's single tree-union driver. Written as a SEPARATE report
/// (BENCH_udg_scale.json) so the long-standing udg_scaling baseline keys
/// stay untouched; CI's scale job diffs it against
/// bench/baselines/BENCH_udg_scale.json with every count exact and
/// generate_seconds (points, unit disk graph, largest component) and
/// build_seconds one-sided at zero slack.
int run_scale(std::uint64_t n, std::uint64_t seed) {
  Report report("udg_scale");
  report.seed(seed);
  report.param("scale_n", n);

  banner("Scale build — th2?k=1 on a constant-density UDG",
         "one locality-ordered tree-union driver; timed end to end through the registry");

  // density 10/pi nodes per unit area => expected average degree ~10.
  const double side = std::sqrt(static_cast<double>(n) * 3.14159265358979323846 / 10.0);
  obs::Stopwatch gen_timer;
  const Graph g = paper_udg(side, static_cast<double>(n), seed);
  const double generate_seconds = gen_timer.seconds();
  std::cout << "workload: mean n = " << n << ", side = " << format_double(side, 1)
            << " -> largest component n = " << g.num_nodes() << ", m = " << g.num_edges()
            << " (" << format_double(generate_seconds, 1) << " s to generate)\n";
  report.value("nodes", g.num_nodes());
  report.value("edges", g.num_edges());
  report.value("generate_seconds", generate_seconds);

  const api::SpannerSpec spec = api::parse_spanner_spec("th2?k=1");
  SpannerBuildInfo info;
  api::BuildContext ctx;
  ctx.info = &info;
  obs::Stopwatch timer;
  const api::SpannerResult res = api::build_spanner(g, spec, ctx);
  const double seconds = timer.seconds();
  std::cout << "build: " << format_double(seconds, 2) << " s on "
            << ThreadPool::global().concurrency() << " workers, " << res.edges.size()
            << " spanner edges, " << info.sum_tree_edges << " tree edges summed over roots\n";
  report.value("spanner_edges", res.edges.size());
  report.value("sum_tree_edges", info.sum_tree_edges);
  report.value("build_seconds", seconds);
  report.finish();
  return 0;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Options opts(argc, argv);
  const double side = opts.get_double("side", 8.0);
  const auto seeds = static_cast<std::uint64_t>(opts.get_int("seeds", 3));
  // The shared-atomic-bitset union keeps the partial-union footprint at
  // m/8 bytes total regardless of worker count (the per-worker EdgeSet
  // scheme cost workers * m/8 and was the first thing to blow memory when
  // scaling n); the larger default top size is affordable because of it.
  const auto n_max = static_cast<std::uint64_t>(opts.get_int("n-max", 6400));
  // Scale build (off by default: it targets n >= 10^7 and runs only in
  // the dedicated CI scale job / local opt-in).
  const auto scale_n = static_cast<std::uint64_t>(opts.get_int("scale-n", 0));
  const auto scale_seed = static_cast<std::uint64_t>(opts.get_int("scale-seed", 1));
  const bool scale_only = opts.get_flag("scale-only");
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;

  if (scale_only) return scale_n > 0 ? run_scale(scale_n, scale_seed) : 0;

  Report report("udg_scaling");
  report.param("side", side);
  report.param("seeds", seeds);
  report.param("n_max", n_max);

  banner("Figure E3 — edge scaling on random UDG (fixed square, Poisson nodes)",
         "paper: (1,0)-remote-spanner O(n^{4/3} log n) vs full graph Omega(n^2)  [Th.2, §3.2]");

  std::vector<double> ns, full_edges, h1_edges, h2_edges;
  double union_bytes_at_max = 0;
  Table table({"mean n", "n (comp)", "edges(G)", "edges(H,k=1)", "edges(H,k=2)",
               "H1/n^(4/3)", "union KiB"});
  for (std::uint64_t n = 200; n <= n_max; n *= 2) {
    double sum_full = 0, sum_h1 = 0, sum_h2 = 0, sum_nodes = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const Graph g = paper_udg(side, static_cast<double>(n), 100 * n + s);
      sum_nodes += g.num_nodes();
      sum_full += static_cast<double>(g.num_edges());
      sum_h1 += static_cast<double>(api::build_spanner(g, "th2?k=1").edges.size());
      sum_h2 += static_cast<double>(api::build_spanner(g, "th2?k=2").edges.size());
    }
    const double nodes = sum_nodes / static_cast<double>(seeds);
    const double fe = sum_full / static_cast<double>(seeds);
    const double h1 = sum_h1 / static_cast<double>(seeds);
    const double h2 = sum_h2 / static_cast<double>(seeds);
    ns.push_back(nodes);
    full_edges.push_back(fe);
    h1_edges.push_back(h1);
    h2_edges.push_back(h2);
    // Mean over seeds, word-rounded, like the sibling columns.
    const double union_bytes = std::ceil(fe / 64.0) * 8.0;
    union_bytes_at_max = union_bytes;
    table.add_row({std::to_string(n), format_double(nodes, 0), format_double(fe, 0),
                   format_double(h1, 0), format_double(h2, 0),
                   format_double(h1 / std::pow(nodes, 4.0 / 3.0), 3),
                   format_double(union_bytes / 1024.0, 1)});
  }
  table.print(std::cout);

  // Human-readable only: worker count and RSS depend on the machine, so
  // they stay out of the JSON values (bench_diff treats values as
  // deterministic at fixed seed).
  const double workers = static_cast<double>(ThreadPool::global().concurrency());
  std::cout << "\npartial-union memory at n-max: "
            << format_double(union_bytes_at_max / 1024.0, 1)
            << " KiB shared (one atomic bitset, O(m) total); per-worker EdgeSet "
               "accumulators would need "
            << format_double(workers * union_bytes_at_max / 1024.0, 1) << " KiB ("
            << format_double(workers, 0) << " workers x m/8 bytes); peak RSS "
            << format_double(peak_rss_bytes() / (1024.0 * 1024.0), 1) << " MiB\n";

  const auto fit_full = fit_power_law(ns, full_edges);
  const auto fit_h1 = fit_power_law(ns, h1_edges);
  const auto fit_h2 = fit_power_law(ns, h2_edges);
  std::cout << "\nfitted growth exponents (log-log OLS):\n"
            << "  full topology   : n^" << format_double(fit_full.slope, 3)
            << "  (paper: 2)\n"
            << "  (1,0)-rem-span  : n^" << format_double(fit_h1.slope, 3)
            << "  (paper: 4/3 ~ 1.333, + log factor)\n"
            << "  2-conn variant  : n^" << format_double(fit_h2.slope, 3)
            << "  (paper: same exponent, k^{2/3} prefactor)\n"
            << "  k=2 / k=1 size ratio at n-max: "
            << format_double(h2_edges.back() / h1_edges.back(), 3)
            << "  (paper: ~2^{2/3} = 1.587)\n";

  report.value("exponent_full", fit_full.slope);
  report.value("exponent_h1", fit_h1.slope);
  report.value("exponent_h2", fit_h2.slope);
  report.value("nodes_at_n_max", ns.back());
  report.value("full_edges_at_n_max", full_edges.back());
  report.value("h1_edges_at_n_max", h1_edges.back());
  report.value("h2_edges_at_n_max", h2_edges.back());
  report.value("k2_over_k1_ratio", h2_edges.back() / h1_edges.back());
  report.finish();

  if (scale_n > 0) return run_scale(scale_n, scale_seed);
  return 0;
}

int main(int argc, char** argv) { return cli_main(bench_main, argc, argv); }
