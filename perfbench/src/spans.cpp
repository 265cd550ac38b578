#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "telemetry/json.h"

namespace perfbench {

std::int64_t SpanLog::open(std::string name) {
  if (!enabled_) return -1;
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({std::move(name), now_ns(), 0, parent});
  const auto id = static_cast<std::int64_t>(records_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  records_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();  // RAII spans close innermost first
}

void SpanLog::add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  if (!enabled_) return;
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({std::move(name), start_ns, end_ns, parent});
}

namespace {

/// Seconds of [start_ns, end_ns) covered by the union of `children`
/// (children may overlap, e.g. concurrent requests under one phase span).
double covered_seconds(
    std::int64_t start_ns, std::int64_t end_ns,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cur_b = 0, cur_e = 0;
  bool have = false;
  for (auto [b, e] : children) {
    b = std::max(b, start_ns);
    e = std::min(e, end_ns);
    if (e <= b) continue;
    if (have && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (have) covered += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    have = true;
  }
  if (have) covered += cur_e - cur_b;
  return static_cast<double>(covered) * 1e-9;
}

}  // namespace

std::map<std::string, double> SpanLog::layer_self_seconds() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      records_.size());
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    const std::string layer = r.name.substr(0, r.name.find('.'));
    self[layer] += dur - covered_seconds(r.start_ns, r.end_ns,
                                         std::move(children[i]));
  }
  return self;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  using ihtl::telemetry::JsonValue;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  JsonValue events = JsonValue::array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    JsonValue ev = JsonValue::object();
    ev.set("name", r.name);
    ev.set("cat", r.name.substr(0, r.name.find('.')));
    ev.set("ph", "X");
    ev.set("ts", static_cast<double>(r.start_ns - origin) * 1e-3);
    ev.set("dur", static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    ev.set("pid", 1);
    ev.set("tid", 1);
    JsonValue args = JsonValue::object();
    args.set("id", static_cast<std::int64_t>(i));
    args.set("parent", r.parent);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace: " + path);
  out << doc.dump(0);
  if (!out) throw std::runtime_error("short write: " + path);
}

}  // namespace perfbench
