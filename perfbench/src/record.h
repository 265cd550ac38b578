// What one benchmark process hands back to run.py: raw measurements plus the
// outcome of every answer check. run.py owns all statistics (medians, pair
// ratios, percentiles), so the reductions are tested in one place.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/ihtl_graph.h"
#include "graph/graph.h"
#include "telemetry/json.h"

namespace perfbench {

/// Failed operations counted against attempted ones; the first few failure
/// messages are kept for the report.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Raw measurements by metric name.
struct Record {
  std::map<std::string, double> values;                 ///< reported as is
  std::map<std::string, std::vector<double>> samples;   ///< reported as median
  /// Interleaved (numerator, denominator) pairs; reported as the median of
  /// the per-pair ratios.
  std::map<std::string, std::vector<std::pair<double, double>>> pairs;
  ihtl::telemetry::JsonValue extra = ihtl::telemetry::JsonValue::object();

  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void pair(const std::string& name, double num, double den) {
    pairs[name].emplace_back(num, den);
  }
};

/// `d` with three significant digits, for failure messages.
inline std::string sci(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", d);
  return buf;
}

/// max |a[i] - b[i]|; infinite when the lengths differ.
inline double max_abs_diff(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::fabs(a[i] - b[i]));
  }
  return d;
}

/// What the run records about each input graph: size, iHTL split, and the
/// vertex-data bytes that decide whether x fits in L2.
inline ihtl::telemetry::JsonValue graph_facts(const ihtl::Graph& g,
                                              const ihtl::IhtlGraph& ig) {
  ihtl::telemetry::JsonValue f = ihtl::telemetry::JsonValue::object();
  f.set("n", static_cast<std::uint64_t>(g.num_vertices()));
  f.set("m", static_cast<std::uint64_t>(g.num_edges()));
  f.set("hubs", static_cast<std::uint64_t>(ig.num_hubs()));
  f.set("blocks", static_cast<std::uint64_t>(ig.blocks().size()));
  f.set("flipped_share", static_cast<double>(ig.flipped_edges()) /
                             static_cast<double>(g.num_edges()));
  f.set("x_bytes",
        static_cast<std::uint64_t>(g.num_vertices()) * sizeof(ihtl::value_t));
  return f;
}

}  // namespace perfbench
