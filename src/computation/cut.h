// Cuts of a computation (paper Sec. 2.2).
//
// A cut is prefix-closed per process, so it is fully described by the index
// of the last included event on each process. Because initial events precede
// everything, every cut includes index 0 of every process; the initial cut is
// the all-zero vector. Consistency is a property checked against the causal
// order (see clocks::VectorClocks::isConsistent).
#pragma once

#include <string>
#include <vector>

#include "computation/computation.h"
#include "computation/event.h"

namespace gpd {

struct Cut {
  // last[p] = index of the last event of process p inside the cut (≥ 0).
  std::vector<int> last;

  Cut() = default;
  explicit Cut(std::vector<int> v) : last(std::move(v)) {}

  int processes() const { return static_cast<int>(last.size()); }

  // The cut passes through event e iff e is the last included event of its
  // process (paper Sec. 2.2).
  bool passesThrough(const EventId& e) const { return last[e.process] == e.index; }

  bool contains(const EventId& e) const { return e.index <= last[e.process]; }

  // Number of non-initial events in the cut — the cut's level in the lattice.
  int level() const {
    int sum = 0;
    for (int v : last) sum += v;
    return sum;
  }

  // Lattice order: C ⊆ D componentwise.
  bool subsetOf(const Cut& o) const {
    for (std::size_t p = 0; p < last.size(); ++p) {
      if (last[p] > o.last[p]) return false;
    }
    return true;
  }

  friend bool operator==(const Cut&, const Cut&) = default;

  std::string toString() const;
};

// Componentwise min / max — the lattice meet and join (the consistent cuts of
// a computation are closed under both).
Cut meet(const Cut& a, const Cut& b);
Cut join(const Cut& a, const Cut& b);

// The all-zero initial cut and the all-events final cut.
Cut initialCut(const Computation& c);
Cut finalCut(const Computation& c);

// FNV-1a over the component indices of a cut given as n contiguous ints —
// the hash of std::hash<Cut>, usable on cuts stored outside a Cut.
inline std::size_t hashCut(const int* last, std::size_t n) noexcept {
  std::size_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::size_t>(last[i]) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace gpd

template <>
struct std::hash<gpd::Cut> {
  std::size_t operator()(const gpd::Cut& c) const noexcept {
    return gpd::hashCut(c.last.data(), c.last.size());
  }
};
