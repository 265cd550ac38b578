#include "host.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "spans.h"

namespace perfbench {

namespace {

bool read_line(const std::string& path, std::string& out) {
  std::ifstream in(path);
  return static_cast<bool>(std::getline(in, out));
}

std::size_t parse_size(const std::string& s) {
  // sysfs writes "48K", "2048K", "307200K" (or a plain byte count).
  std::size_t v = std::stoull(s);
  if (!s.empty() && (s.back() == 'K' || s.back() == 'k')) v <<= 10;
  if (!s.empty() && s.back() == 'M') v <<= 20;
  return v;
}

}  // namespace

CacheGeometry probe_cache_geometry() {
  CacheGeometry geom;
  bool l1 = false, l2 = false, llc = false;
  int llc_level = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::string level, type, size, ways, line;
    if (!read_line(dir + "level", level)) break;
    if (!read_line(dir + "type", type) || type == "Instruction") continue;
    if (!read_line(dir + "size", size) || !read_line(dir + "ways_of_associativity", ways) ||
        !read_line(dir + "coherency_line_size", line)) {
      continue;
    }
    ihtl::CacheConfig cfg{parse_size(size), std::stoull(line), std::stoull(ways)};
    if (cfg.size_bytes == 0 || cfg.ways == 0 || cfg.line_bytes == 0) continue;
    const int lv = std::stoi(level);
    if (lv == 1) {
      geom.l1d = cfg;
      l1 = true;
    } else if (lv == 2) {
      geom.l2 = cfg;
      l2 = true;
    } else if (lv > llc_level) {
      geom.llc = cfg;
      llc_level = lv;
      llc = true;
    }
  }
  geom.probed = l1 && l2 && llc;
  return geom;
}

CpuTicks read_cpu_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

ihtl::CacheHierarchy make_hierarchy(const CacheGeometry& geom) {
  return ihtl::CacheHierarchy({geom.l1d, geom.l2, geom.llc});
}

TriadResult stream_triad(const CacheGeometry& geom, std::size_t threads,
                         int reps) {
  TriadResult res;
  const std::size_t n =
      std::max<std::size_t>(4 * geom.llc.size_bytes, 64u << 20) / sizeof(double);
  res.array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  if (threads == 0) threads = 1;
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> team;
    for (std::size_t t = 0; t < threads; ++t) {
      team.emplace_back([&, t] {
        const std::size_t lo = n * t / threads, hi = n * (t + 1) / threads;
        body(lo, hi);
      });
    }
    for (std::thread& th : team) th.join();
  };
  // First touch from the same partition the triad uses.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbs;
  const double s = 3.0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double sec = static_cast<double>(now_ns() - t0) * 1e-9;
    gbs.push_back(3.0 * static_cast<double>(res.array_bytes) / sec * 1e-9);
  }
  std::sort(gbs.begin(), gbs.end());
  res.gbs = gbs[gbs.size() / 2];
  if (a[n / 2] != 7.0) res.gbs = 0.0;  // the triad must have run
  return res;
}

}  // namespace perfbench
