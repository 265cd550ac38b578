#include "oneshot.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "apps/pagerank.h"
#include "baselines/spmv.h"
#include "cachesim/trace_spmv.h"
#include "core/hub_selection.h"
#include "core/ihtl_graph.h"
#include "core/ihtl_spmv.h"
#include "core/sharded_engine.h"
#include "graph/io.h"
#include "telemetry/metrics.h"

namespace perfbench {

using ihtl::Graph;
using ihtl::IhtlConfig;
using ihtl::IhtlGraph;
using ihtl::value_t;
using ihtl::vid_t;

namespace {

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

ihtl::PageRankOptions pagerank_options(unsigned max_iterations) {
  ihtl::PageRankOptions opt;
  opt.iterations = max_iterations;
  opt.tolerance = kTolerance;
  return opt;
}

void check_ranks(Checks& checks, const char* what,
                 const ihtl::PageRankResult& got,
                 const ihtl::PageRankResult& ref) {
  const double d = max_abs_diff(got.ranks, ref.ranks);
  checks.expect(d <= kRankTolerance && got.iterations_run == ref.iterations_run,
                std::string(what) + ": max|d|=" + sci(d) +
                    " iterations " + std::to_string(got.iterations_run) +
                    " vs " + std::to_string(ref.iterations_run));
}

/// Total seconds recorded so far under a library span path.
double registry_span_s(const std::string& path) {
  const auto s = ihtl::telemetry::MetricsRegistry::global().span(path);
  return s ? s->total_s : 0.0;
}

/// Bytes one SpMV must move at minimum (computed, not measured): every
/// block's topology once, one read of x and one write of y.
double compulsory_bytes(const IhtlGraph& ig) {
  double bytes = static_cast<double>(ig.sparse().topology_bytes());
  for (const ihtl::FlippedBlock& b : ig.blocks()) {
    bytes += static_cast<double>(b.csr.topology_bytes());
  }
  return bytes + 2.0 * static_cast<double>(ig.num_vertices()) * sizeof(value_t);
}

/// The iHTL one-shot path: load, select_hubs, build_ihtl_graph, then
/// pagerank_ihtl on `pool`, each call in a span. The graph and its iHTL form
/// stay alive for further solves.
struct IhtlRun {
  Graph g;
  IhtlGraph ig;
  double setup_s = 0.0;
  double solve_s = 0.0;
  ihtl::PageRankResult result;
};

IhtlRun run_ihtl_path(const std::string& path, ihtl::ThreadPool& pool,
                      unsigned max_iterations, SpanLog& log) {
  IhtlRun r;
  const std::int64_t t0 = now_ns();
  {
    Span s(log, "graph.load_graph_binary");
    r.g = ihtl::load_graph_binary(path);
  }
  const IhtlConfig cfg;
  ihtl::HubSelection sel;
  {
    Span s(log, "core.select_hubs");
    sel = ihtl::select_hubs(r.g, cfg);
  }
  {
    Span s(log, "core.build_ihtl_graph");
    r.ig = ihtl::build_ihtl_graph(r.g, sel, cfg);
  }
  r.setup_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  {
    Span s(log, "apps.pagerank_ihtl");
    r.result = ihtl::pagerank_ihtl(pool, r.g, r.ig,
                                   pagerank_options(max_iterations));
  }
  r.solve_s = seconds_since(t1);
  return r;
}

}  // namespace

void oneshot_rep(const std::string& path, Pools pools, unsigned max_iterations,
                 bool pull_first, Checks& checks, Record& rec) {
  SpanLog untraced;
  IhtlRun ihtl_run;
  ihtl::PageRankResult pull;
  double pull_e2e_s = 0.0;

  auto run_ihtl = [&] {
    ihtl_run = run_ihtl_path(path, pools.all, max_iterations, untraced);
    if (!rec.extra.find("graph")) {
      ihtl::telemetry::JsonValue facts = graph_facts(ihtl_run.g, ihtl_run.ig);
      facts.set("pagerank_iterations",
                static_cast<std::uint64_t>(ihtl_run.result.iterations_run));
      rec.extra.set("graph", std::move(facts));
    }
    // Free the graphs before the pull path loads its own copy.
    ihtl_run.g = Graph();
    ihtl_run.ig = IhtlGraph();
  };
  auto run_pull = [&] {
    const std::int64_t t0 = now_ns();
    const Graph g = ihtl::load_graph_binary(path);
    pull = ihtl::pagerank(pools.all, g, ihtl::SpmvKernel::pull,
                          pagerank_options(max_iterations));
    pull_e2e_s = seconds_since(t0);
  };
  if (pull_first) {
    run_pull();
    run_ihtl();
  } else {
    run_ihtl();
    run_pull();
  }

  check_ranks(checks, "pagerank_ihtl T=all vs pull", ihtl_run.result, pull);
  const double e2e_s = ihtl_run.setup_s + ihtl_run.solve_s;
  rec.sample("setup_s", ihtl_run.setup_s);
  rec.sample("e2e_s", e2e_s);
  rec.pair("speedup_vs_pull", pull_e2e_s, e2e_s);
}

double oneshot_e2e(const std::string& path, ihtl::ThreadPool& pool,
                   unsigned max_iterations, SpanLog& log) {
  Span root(log, "bench.oneshot");
  const IhtlRun r = run_ihtl_path(path, pool, max_iterations, log);
  return r.setup_s + r.solve_s;
}

void oneshot_layers(const std::string& path, Pools pools,
                    unsigned max_iterations, const CacheGeometry& geom,
                    SpanLog& log, Checks& checks, Record& rec) {
  const IhtlConfig cfg;
  std::int64_t t0 = now_ns();
  Graph g;
  {
    Span s(log, "graph.load_graph_binary");
    g = ihtl::load_graph_binary(path);
  }
  rec.values["graph.load_s"] = seconds_since(t0);

  t0 = now_ns();
  ihtl::HubSelection sel;
  {
    Span s(log, "core.select_hubs");
    sel = ihtl::select_hubs(g, cfg);
  }
  rec.values["core.hub_select_s"] = seconds_since(t0);

  const char* const kPhases[] = {"relabel", "build-flipped", "build-sparse"};
  double before[3];
  for (int i = 0; i < 3; ++i) {
    before[i] = registry_span_s(std::string("preprocess/") + kPhases[i]);
  }
  t0 = now_ns();
  IhtlGraph ig;
  {
    Span s(log, "core.build_ihtl_graph");
    ig = ihtl::build_ihtl_graph(g, sel, cfg);
  }
  rec.values["core.build_s"] = seconds_since(t0);
  for (int i = 0; i < 3; ++i) {
    rec.values[std::string("core.preprocess.") + kPhases[i] + "_s"] =
        registry_span_s(std::string("preprocess/") + kPhases[i]) - before[i];
  }

  rec.extra.set("graph", graph_facts(g, ig));
  const vid_t n = g.num_vertices();
  const double m = static_cast<double>(g.num_edges());
  rec.values["core.flipped_edge_frac"] =
      static_cast<double>(ig.flipped_edges()) / m;
  rec.values["core.hubs"] = ig.num_hubs();
  rec.values["core.blocks"] = static_cast<double>(ig.blocks().size());
  rec.values["core.topology_bytes"] = static_cast<double>(ig.topology_bytes());
  rec.values["spmv.compulsory_bytes"] = compulsory_bytes(ig);
  rec.values["graph.edges"] = m;

  // Deterministic dense input in the original ID space, and its relabeled
  // copy for the engine.
  std::vector<value_t> x_old(n), x_new(n), y_new(n), y_pull(n);
  const auto& o2n = ig.old_to_new();
  for (vid_t v = 0; v < n; ++v) {
    x_old[v] = 1.0 / (1.0 + static_cast<double>(v % 97));
    x_new[o2n[v]] = x_old[v];
  }
  auto check_spmv = [&](const char* what) {
    double d = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      d = std::max(d, std::fabs(y_new[o2n[v]] - y_pull[v]) /
                          std::max(1.0, std::fabs(y_pull[v])));
    }
    checks.expect(d <= 1e-12, std::string(what) + ": max rel |d|=" +
                                  sci(d));
  };

  t0 = now_ns();
  std::optional<ihtl::IhtlEngine<>> engine;
  {
    Span s(log, "core.IhtlEngine");
    engine.emplace(ig, pools.all);
  }
  rec.values["core.engine_init_ms"] = seconds_since(t0) * 1e3;
  rec.values["spmv.single_owner_blocks"] =
      static_cast<double>(engine->single_owner_blocks());
  rec.values["spmv.sparse_binned"] = engine->sparse_binned() ? 1.0 : 0.0;
  rec.values["spmv.bins"] = static_cast<double>(engine->bin_count());

  // Interleaved iHTL / pull calls at T = all; the order alternates so that
  // neither kernel always runs on the other's warm cache.
  const int kCalls = 24;
  for (int warm = 0; warm < 2; ++warm) {
    engine->spmv(x_new, y_new);
    ihtl::spmv_pull(pools.pull, g, x_old, y_pull);
  }
  pools.all.reset_stats();
  for (int c = 0; c < kCalls; ++c) {
    double ihtl_ms = 0.0, pull_ms = 0.0;
    auto call_ihtl = [&] {
      const std::int64_t t = now_ns();
      {
        Span s(log, "core.IhtlEngine::spmv");
        engine->spmv(x_new, y_new);
      }
      ihtl_ms = seconds_since(t) * 1e3;
    };
    auto call_pull = [&] {
      const std::int64_t t = now_ns();
      {
        Span s(log, "baselines.spmv_pull");
        ihtl::spmv_pull(pools.pull, g, x_old, y_pull);
      }
      pull_ms = seconds_since(t) * 1e3;
    };
    if (c % 2) {
      call_pull();
      call_ihtl();
    } else {
      call_ihtl();
      call_pull();
    }
    rec.sample("spmv.iter_ms", ihtl_ms);
    rec.sample("pull.iter_ms", pull_ms);
    rec.pair("spmv.vs_pull", pull_ms, ihtl_ms);
    const ihtl::IhtlPhaseTimes& pt = engine->last_phase_times();
    rec.sample("spmv.reset_ms", pt.reset_s * 1e3);
    rec.sample("spmv.push_ms", pt.push_s * 1e3);
    rec.sample("spmv.merge_ms", pt.merge_s * 1e3);
    rec.sample("spmv.pull_ms", pt.pull_s * 1e3);
    const ihtl::IhtlSpmvStats& st = engine->last_stats();
    rec.sample("spmv.reset_values_cleared",
               static_cast<double>(st.reset_values_cleared));
    rec.sample("spmv.merge_segments_streamed",
               static_cast<double>(st.merge_segments_streamed));
    if (c == 0) check_spmv("IhtlEngine::spmv T=all vs spmv_pull");
  }
  {
    std::uint64_t steals = 0;
    for (std::size_t t = 0; t < pools.all.size(); ++t) {
      steals += pools.all.worker_stats(t).steals.load();
    }
    rec.values["pool.steals_per_call"] =
        static_cast<double>(steals) / static_cast<double>(kCalls);
    ihtl::telemetry::MetricsRegistry pool_reg;
    pools.all.export_metrics(pool_reg, "pool");
    rec.values["pool.imbalance"] = pool_reg.gauge("pool.imbalance").value_or(0.0);
  }
  engine.reset();

  // The same calls at T = 1: the single-thread baseline of the kernel.
  {
    ihtl::IhtlEngine<> one(ig, pools.one);
    one.spmv(x_new, y_new);
    for (int c = 0; c < kCalls / 3; ++c) {
      const std::int64_t t = now_ns();
      {
        Span s(log, "core.IhtlEngine::spmv");
        one.spmv(x_new, y_new);
      }
      rec.sample("spmv.iter_t1_ms", seconds_since(t) * 1e3);
    }
    check_spmv("IhtlEngine::spmv T=1 vs spmv_pull");
  }

  // Destination-range sharding at S = T: kept visible, not the default.
  {
    std::optional<ihtl::ShardedEngine<>> sharded;
    {
      Span s(log, "core.ShardedEngine");
      sharded.emplace(ig, pools.all, pools.all.size());
    }
    rec.values["sharded.imbalance"] = sharded->imbalance();
    sharded->spmv(x_new, y_new);
    for (int c = 0; c < kCalls / 3; ++c) {
      const std::int64_t t = now_ns();
      {
        Span s(log, "core.ShardedEngine::spmv");
        sharded->spmv(x_new, y_new);
      }
      rec.sample("sharded.iter_ms", seconds_since(t) * 1e3);
    }
    check_spmv("ShardedEngine::spmv vs spmv_pull");
  }

  // Simulated misses with the host's geometry (single-thread replay).
  {
    ihtl::CacheHierarchy h = make_hierarchy(geom);
    ihtl::TraceCounters c;
    {
      Span s(log, "cachesim.trace_ihtl_spmv");
      c = ihtl::trace_ihtl_spmv(g, ig, h);
    }
    rec.values["cachesim.ihtl_l2_miss_per_edge"] =
        static_cast<double>(c.l2_misses) / m;
  }
  {
    ihtl::CacheHierarchy h = make_hierarchy(geom);
    ihtl::TraceCounters c;
    {
      Span s(log, "cachesim.trace_pull_spmv");
      c = ihtl::trace_pull_spmv(g, h);
    }
    rec.values["cachesim.pull_l2_miss_per_edge"] =
        static_cast<double>(c.l2_misses) / m;
  }

  // The application: PageRank to tolerance on the built graph, at
  // T = all and at T = 1 (the plain single-thread baseline).
  {
    const ihtl::PageRankOptions opt = pagerank_options(max_iterations);
    ihtl::PageRankResult r, r1;
    std::int64_t t = now_ns();
    {
      Span s(log, "apps.pagerank_ihtl");
      r = ihtl::pagerank_ihtl(pools.all, g, ig, opt);
    }
    rec.values["pagerank.solve_s"] = seconds_since(t);
    t = now_ns();
    {
      Span s(log, "apps.pagerank_ihtl");
      r1 = ihtl::pagerank_ihtl(pools.one, g, ig, opt);
    }
    rec.values["pagerank.solve_t1_s"] = seconds_since(t);
    rec.values["pagerank.iterations"] = r.iterations_run;
    checks.expect(r.iterations_run > 0 && r.iterations_run <= max_iterations,
                  "pagerank_ihtl ran " + std::to_string(r.iterations_run) +
                      " iterations, cap " + std::to_string(max_iterations));
    check_ranks(checks, "pagerank_ihtl T=1 vs T=all", r1, r);
  }
}

}  // namespace perfbench
