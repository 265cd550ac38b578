// The serving path: the real Server on loopback, driven by one client
// thread over a few connections with seeded PPR reads (Zipf-popular
// sources) and small update batches, about one update per 20 reads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "inputs.h"
#include "record.h"
#include "spans.h"

namespace perfbench {

/// PPR as every read asks for it.
inline constexpr unsigned kPprIterations = 10;
inline constexpr double kPprDamping = 0.85;
/// Reads per update, and edges each update inserts (it also removes the
/// previous update's inserts, so the graph stays near its base size).
inline constexpr int kReadsPerUpdate = 20;
inline constexpr int kEdgesPerUpdate = 32;

/// Times one serve set-up: load the graph file, build the GraphSession
/// (which preprocesses), start the Server and complete one round trip.
/// Tears it down again before returning; returns the set-up seconds.
double serve_setup_once(const std::string& path, std::size_t threads);

struct ServePlan {
  int segments = 1;  ///< warm-up + closed + open loop triples
  std::size_t warmup_requests = 0;  ///< uncounted closed loop per segment
  std::size_t closed_requests = 0;  ///< closed loop per segment
  std::size_t open_arrivals = 0;    ///< open loop per segment
  bool layers = false;  ///< also record the per-layer metrics
  /// Closed-loop windows run with the span log on and off, alternating
  /// which goes first, for trace_overhead (traced runs only).
  int overhead_pairs = 0;
  /// Runs before each segment while the server idles. The untraced run
  /// puts its one-shot repetitions here, so a transient slowdown of the
  /// host lands in only some segments of every metric.
  std::function<void(int)> between;
};

/// Starts one server and runs `plan.segments` times a warm-up, a closed
/// loop and an open loop at `w.open_rate_qps` against it; checks every
/// response and a seeded sample against an independent reference. Appends
/// the raw results to `rec`.
void serve_traffic(const std::string& path, const Workload& w,
                   std::uint64_t seed, std::size_t threads,
                   const ServePlan& plan, SpanLog& log, Checks& checks,
                   Record& rec);

}  // namespace perfbench
