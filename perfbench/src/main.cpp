// perfbench: one benchmark process per (workload, seed, trace) run.
//
//   perfbench --workload social|web --seed N --seconds S --trace 0|1
//             --cache DIR --out RAW.json [--trace-out TRACE.json]
//
// Generates (or reuses) the seeded inputs, measures, checks every answer and
// writes the raw measurements to RAW.json; run.py turns them into metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/io.h"
#include "host.h"
#include "inputs.h"
#include "oneshot.h"
#include "parallel/thread_pool.h"
#include "record.h"
#include "serve_load.h"
#include "spans.h"

namespace perfbench {
namespace {

using ihtl::telemetry::JsonValue;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache;
  std::string out;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument(std::string("missing ") + k);
    return it->second;
  };
  Args a;
  a.workload = need("--workload");
  a.seed = std::stoull(need("--seed"));
  a.seconds = std::stod(need("--seconds"));
  a.trace = need("--trace") == "1";
  a.cache = need("--cache");
  a.out = need("--out");
  if (kv.count("--trace-out")) a.trace_out = kv["--trace-out"];
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

JsonValue numbers(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (const double x : v) a.push_back(x);
  return a;
}

JsonValue cache_json(const ihtl::CacheConfig& c) {
  JsonValue o = JsonValue::object();
  o.set("bytes", static_cast<std::uint64_t>(c.size_bytes));
  o.set("ways", static_cast<std::uint64_t>(c.ways));
  o.set("line", static_cast<std::uint64_t>(c.line_bytes));
  return o;
}

int run(const Args& args) {
  const Workload w = workload_by_name(args.workload);
  const CacheGeometry geom = probe_cache_geometry();
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Inputs first, outside every timed window; then one untimed load of
  // each file so no repetition pays a cold page cache.
  const InputFiles files = ensure_inputs(w, args.seed, args.cache);
  ihtl::load_graph_binary(files.large);
  ihtl::load_graph_binary(files.serve);

  const CpuTicks ticks0 = read_cpu_ticks();
  ihtl::ThreadPool all(threads), one(1), pull(threads);
  const Pools pools{all, one, pull};
  SpanLog log;
  Checks checks;
  Record rec;
  JsonValue host = JsonValue::object();
  host.set("probed", geom.probed);
  host.set("threads", static_cast<std::uint64_t>(threads));
  host.set("l1d", cache_json(geom.l1d));
  host.set("l2", cache_json(geom.l2));
  host.set("llc", cache_json(geom.llc));

  if (!args.trace) {
    // Four segments. Each is one one-shot repetition (paired with one
    // serve set-up) while the server idles, then a warm-up, a closed loop
    // and an open loop against the running server, so every metric's
    // samples spread over the whole run. The loops are sized by request
    // count, so a slower host does the same work: the closed loop takes
    // its rate as twice the open loop's, and the open loops together hold
    // at least 21 updates (their p50 needs ten beyond it).
    const double per_read = (kReadsPerUpdate + 1.0) / kReadsPerUpdate;
    ServePlan plan;
    plan.segments = 4;
    plan.warmup_requests = 12;
    plan.closed_requests = static_cast<std::size_t>(
        2 * w.open_rate_qps * 0.03 * args.seconds * per_read);
    plan.open_arrivals = std::max<std::size_t>(
        (21 * (kReadsPerUpdate + 1) + plan.segments - 1) / plan.segments,
        static_cast<std::size_t>(w.open_rate_qps * 0.1 * args.seconds *
                                 per_read));
    plan.between = [&](int seg) {
      oneshot_rep(files.large, pools, w.max_iterations, seg % 2 == 1, checks,
                  rec);
      rec.sample("serve_setup_s", serve_setup_once(files.serve, threads));
    };
    serve_traffic(files.serve, w, args.seed, threads, plan, log, checks, rec);
  } else {
    log.set_enabled(true);
    {
      Span s(log, "bench.stream_triad");
      const TriadResult t = stream_triad(geom, threads, 5);
      rec.values["mem.triad_gbs"] = t.gbs;
      host.set("triad_array_bytes", static_cast<std::uint64_t>(t.array_bytes));
    }
    oneshot_layers(files.large, pools, w.max_iterations, geom, log, checks,
                   rec);
    // What tracing costs the one-shot path: the log on and off, alternating
    // which goes first. serve_traffic adds the serving path's pairs.
    for (int r = 0; r < 2; ++r) {
      double seconds[2] = {0.0, 0.0};  // [log on, log off]
      for (const bool on : {r % 2 == 0, r % 2 != 0}) {
        log.set_enabled(on);
        seconds[on ? 0 : 1] =
            oneshot_e2e(files.large, all, w.max_iterations, log);
      }
      rec.pair("trace_overhead", seconds[0], seconds[1]);
    }
    log.set_enabled(true);
    ServePlan plan;
    plan.warmup_requests = 12;
    plan.closed_requests = static_cast<std::size_t>(
        2 * w.open_rate_qps * 0.05 * args.seconds);
    plan.open_arrivals = 21 * (kReadsPerUpdate + 1);
    plan.layers = true;
    plan.overhead_pairs = 4;
    serve_traffic(files.serve, w, args.seed, threads, plan, log, checks, rec);
    JsonValue self = JsonValue::object();
    for (const auto& [layer, s] : log.layer_self_seconds()) self.set(layer, s);
    rec.extra.set("self_s", std::move(self));
    if (!args.trace_out.empty()) log.write_chrome_trace(args.trace_out);
  }

  const CpuTicks ticks1 = read_cpu_ticks();
  host.set("steal_frac", steal_share(ticks0, ticks1));

  JsonValue out = JsonValue::object();
  out.set("workload", w.name);
  out.set("seed", args.seed);
  out.set("trace", args.trace);
  out.set("host", std::move(host));
  out.set("generate_s", files.generate_s);
  out.set("attempted", checks.attempted());
  out.set("failed", checks.failed());
  JsonValue failures = JsonValue::array();
  for (const std::string& m : checks.messages()) failures.push_back(m);
  out.set("failures", std::move(failures));
  JsonValue values = JsonValue::object();
  for (const auto& [k, v] : rec.values) values.set(k, v);
  out.set("values", std::move(values));
  JsonValue samples = JsonValue::object();
  for (const auto& [k, v] : rec.samples) samples.set(k, numbers(v));
  out.set("samples", std::move(samples));
  JsonValue pairs = JsonValue::object();
  for (const auto& [k, v] : rec.pairs) {
    JsonValue a = JsonValue::array();
    for (const auto& [num, den] : v) a.push_back(numbers({num, den}));
    pairs.set(k, std::move(a));
  }
  out.set("pairs", std::move(pairs));
  for (const auto& [k, v] : rec.extra.entries()) out.set(k, v);

  std::ofstream f(args.out);
  f << out.dump(1);
  if (!f) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
