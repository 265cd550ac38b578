// Host probe: cache geometry from sysfs and a STREAM-triad bandwidth
// ceiling. Both are the benchmark's own code, independent of the library,
// so a change in the library cannot move them; a change here flags host
// drift between runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cachesim/cache.h"

namespace perfbench {

struct CacheGeometry {
  bool probed = false;  ///< false: sysfs unreadable, defaults below used
  ihtl::CacheConfig l1d{48u << 10, 64, 12};
  ihtl::CacheConfig l2{2u << 20, 64, 16};
  ihtl::CacheConfig llc{300u << 20, 64, 20};
};

/// Reads cpu0's data/unified caches from /sys/devices/system/cpu/cpu0/cache.
CacheGeometry probe_cache_geometry();

/// The three-level hierarchy the cache simulator replays with.
ihtl::CacheHierarchy make_hierarchy(const CacheGeometry& geom);

/// CPU time the hypervisor gave to other guests ("steal") and all CPU
/// time, in ticks summed over every CPU, from /proc/stat; both 0 where
/// unreadable. Their growth over a run tells how contended the host was.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();

/// The share of all CPU time between two readings that was stolen.
inline double steal_share(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total
             ? static_cast<double>(to.steal - from.steal) /
                   static_cast<double>(to.total - from.total)
             : 0.0;
}

struct TriadResult {
  double gbs = 0.0;               ///< median over repetitions
  std::size_t array_bytes = 0;    ///< bytes of each of the three arrays
};

/// a[i] = b[i] + s * c[i] on `threads` std::threads, each array at least
/// four times the last-level cache. Reports bytes moved as 3 × array bytes
/// per repetition (two reads and one write, no write-allocate counted).
TriadResult stream_triad(const CacheGeometry& geom, std::size_t threads,
                         int reps);

}  // namespace perfbench
