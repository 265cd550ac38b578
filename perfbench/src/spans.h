// Benchmark-side span recorder. Every call the benchmark makes into a
// library layer is wrapped here, from the benchmark's own files, so the
// library carries no benchmark instrumentation. Spans live in memory and are
// written once, at the end, as a Chrome trace.
//
// A span's layer is the prefix of its name up to the first '.', e.g.
// "core.build_ihtl_graph" belongs to `core`. Layer self time is a span's
// duration minus the union of its children's intervals, summed per layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the parent record, -1 = root
  };

  /// A disabled log records nothing and costs one branch per span.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span nested under the innermost open one; returns its index
  /// (or -1 when disabled).
  std::int64_t open(std::string name);
  void close(std::int64_t id);
  /// Records an already finished interval (e.g. one request among several
  /// in flight) as a child of the innermost open span.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  /// Self seconds per layer over every recorded span.
  std::map<std::string, double> layer_self_seconds() const;

  /// Writes the records as Chrome trace "X" events (microsecond times
  /// relative to the first span), with the span index and parent in args.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

/// RAII span around one call.
class Span {
 public:
  Span(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

}  // namespace perfbench
