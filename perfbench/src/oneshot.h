// The one-shot analytics path: graph file → preprocess → PageRank to
// tolerance, and the per-layer view of the same path.
#pragma once

#include <string>

#include "host.h"
#include "parallel/thread_pool.h"
#include "record.h"
#include "spans.h"

namespace perfbench {

/// PageRank as a one-shot user runs it: L1 tolerance 1e-6, damping 0.85,
/// at most the workload's iteration cap (Workload::max_iterations).
inline constexpr double kTolerance = 1e-6;
/// iHTL ranks must match the pull kernel's within this (max |Δ|); the
/// kernels differ only in summation order.
inline constexpr double kRankTolerance = 1e-12;

struct Pools {
  ihtl::ThreadPool& all;   ///< T = hardware concurrency
  ihtl::ThreadPool& one;   ///< T = 1
  ihtl::ThreadPool& pull;  ///< T = hardware concurrency, pull kernel only
};

/// One interleaved repetition: the iHTL path (load, select_hubs,
/// build_ihtl_graph, pagerank_ihtl at T = all) and the pull path (load,
/// pagerank with the pull kernel), in the given order, both solving to
/// tolerance within `max_iterations`. Appends setup_s and e2e_s samples
/// and the speedup_vs_pull pair; checks the iHTL answer against the pull
/// answer.
void oneshot_rep(const std::string& path, Pools pools, unsigned max_iterations,
                 bool pull_first, Checks& checks, Record& rec);

/// The iHTL path alone (load, select_hubs, build_ihtl_graph, pagerank_ihtl
/// at T = all) with a span around each call; returns its seconds. Run with
/// the log on and off to measure what tracing costs.
double oneshot_e2e(const std::string& path, ihtl::ThreadPool& pool,
                   unsigned max_iterations, SpanLog& log);

/// The traced per-layer measurements on the one-shot graph (see README).
void oneshot_layers(const std::string& path, Pools pools,
                    unsigned max_iterations, const CacheGeometry& geom,
                    SpanLog& log, Checks& checks, Record& rec);

}  // namespace perfbench
