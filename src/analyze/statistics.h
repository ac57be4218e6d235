// Order-theoretic statistics of a computation.
//
// Width (the largest antichain — by Dilworth, the minimum chain cover of the
// event poset), height (the longest causal chain), message/concurrency
// summaries, and the lattice size estimate. These quantify exactly the
// parameters the paper's complexity results trade on: the lattice that
// exhaustive detection pays for grows with width, while the algorithms'
// costs grow with height and event counts.
#pragma once

#include <cstdint>

#include "clocks/vector_clock.h"
#include "computation/computation.h"

namespace gpd::analyze {

struct ComputationStats {
  int processes = 0;
  int events = 0;            // total, including initial events
  int messages = 0;
  int height = 0;            // longest ≺-chain of non-initial events
  int width = 0;             // largest antichain of non-initial events
  double concurrencyIndex = 0;  // fraction of event pairs that are concurrent
  double gridBound = 0;      // Π eventCount(p): lattice upper bound
};

ComputationStats computeStats(const VectorClocks& clocks);

}  // namespace gpd::analyze
