// The four perfbench workloads. Each runs in its own process and returns
// the metrics of its end-to-end run (trace off) or of its traced run.
#pragma once

#include <cstdint>

#include "report.h"

namespace perfbench {

// detect-lattice / detect-wide: closed loop of offline `detect` queries.
Result runOffline(const RunOptions& o);

// gpdd-churn / gpdd-resident: the gpdd serve loop driven in process.
Result runOnline(const RunOptions& o);

// Seeded generator shared by the workload builders (splitmix64): the
// inputs depend only on the seed, never on library code.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t s_;
};

}  // namespace perfbench
