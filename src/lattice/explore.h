// Exhaustive exploration of the lattice of consistent cuts.
//
// This is the Cooper–Marzullo style baseline (paper reference [5]): it
// decides possibly(φ) and definitely(φ) for *arbitrary* global predicates by
// breadth-first search over consistent cuts, level by level. Exponential in
// the number of processes — the whole point of the paper's algorithms is to
// avoid it — but exact, so it is the ground truth every efficient detector
// is validated against, and the comparison baseline in the benches.
//
// One BFS serves every caller: explore() takes a visitor plus
// ExploreOptions{budget, pool, admit}, and possibly() / definitely() /
// latticeStats() are thin wrappers over it. A budget (control/budget.h) is
// charged one cut per visit and sees the live frontier bytes per level, so
// a wall-clock deadline, a cut cap, or a frontier-memory cap turns an
// exponential blowup into an explicit incomplete result instead of a hang
// or an OOM. A pool makes the same BFS level-synchronous parallel with a
// bit-identical result (see ExploreOptions::pool).
//
// Visit order. Level L holds the cuts with L non-initial events. The
// canonical parent of a cut H ≠ ⊥ is H minus its highest-index maximal
// non-initial event ((j, H[j]) is maximal when no other event of H depends
// on it). Level 0 is ⊥; level L+1 lists, for each cut P of level L in
// order and each process p ascending, the successor P + (next event of p)
// whose canonical parent is P. Every cut has exactly one canonical parent
// one level down, so each cut is generated exactly once and the BFS needs
// no duplicate index; the order is a function of the computation alone.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "clocks/vector_clock.h"
#include "computation/computation.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "par/pool.h"

namespace gpd::lattice {

// A global predicate as a boolean function of a consistent cut (paper
// Sec. 2.3). Variable-based predicate classes adapt to this via
// predicates/eval.h.
using CutPredicate = std::function<bool(const Cut&)>;

// Called once per visited cut; returning false stops the exploration.
using CutVisitor = std::function<bool(const Cut&)>;

// Restriction of the BFS to a sublattice (the slice-first pre-pass): called
// with the advanced process and the successor cut; returning false prunes
// that successor from the frontier.
//
// Contract: the admitted region must be down-closed — admit(p, H) returns
// true exactly for the cuts H of a set R that contains every consistent cut
// below any of its members (a `≤ top` bound; a slice restriction, whose R is
// every cut whose events are all included and that lies below the slice
// top, which contains every satisfying cut of any predicate implying the
// sliced one). Then every cut of R has its canonical parent in R, and the
// BFS visits exactly R, in the unrestricted order filtered to R. A region
// that is not down-closed loses every cut whose canonical parent it
// refuses, even when another parent is admitted. definitely()'s ¬φ search
// is the one such restriction; it generates every successor and keeps first
// occurrences instead (see definitely()).
using CutAdmit = std::function<bool(ProcessId, const Cut&)>;

// How an exploration ended. Callers that stop the visit early (searches)
// must be able to tell their own stop from true exhaustion — and both from
// a budget stop, which leaves part of the lattice unexamined.
enum class ExploreEnd {
  Exhausted,        // every consistent cut was visited
  VisitorStopped,   // visit returned false
  BudgetExhausted,  // the budget tripped; the lattice was NOT covered
};

struct ExploreOptions {
  // Charged one cut per visit; its frontier limit sees every level.
  control::Budget* budget = nullptr;
  // Level-synchronous parallel BFS: the workers scan disjoint contiguous
  // slices of each level and their successors merge back in slice order,
  // reproducing the sequential level order exactly. A stop is taken at the
  // lowest level position whose visit returned false, cutsVisited counts
  // the sequential prefix up to it, and cut charges made past it are given
  // back to the budget; a cut budget caps each level to the prefix the
  // sequential scan would have charged before its CutLimit latch. The
  // result (including cutsVisited and the budget's progress) is therefore
  // bit-identical to the sequential BFS for any thread count under count
  // and frontier budgets. visit and admit run concurrently and must be
  // thread-safe (the library's variable-based predicates are: evaluation
  // is pure const reads of the trace).
  par::Pool* pool = nullptr;
  // Optional sublattice restriction; the region must be down-closed (see
  // CutAdmit). The restricted BFS visits, level by level, exactly the full
  // BFS's visit order filtered to the admitted region: every admitted cut
  // has the same canonical parent as in the full BFS, and that parent is
  // admitted too.
  const CutAdmit* admit = nullptr;
};

struct ExploreResult {
  std::uint64_t cutsVisited = 0;
  ExploreEnd end = ExploreEnd::Exhausted;
  // The cut whose visit returned false (VisitorStopped only).
  std::optional<Cut> stoppedAt;
  // Widest BFS frontier observed (cuts of one level plus the next level
  // under construction) — the measured signal behind memory budgets.
  std::uint64_t peakFrontierCuts = 0;
  std::uint64_t peakFrontierBytes = 0;
  // Levels entered, and the most cuts any of them held.
  int levels = 0;
  std::uint64_t widestLevel = 0;
};

// Visits every consistent cut exactly once in level order (level = number
// of non-initial events; within a level, in canonical-parent order, see the
// top of this file). Stops early when `visit` returns false
// (VisitorStopped) or when the budget trips (BudgetExhausted); the result
// separates the two from genuine exhaustion.
ExploreResult explore(const VectorClocks& clocks, const CutVisitor& visit,
                      const ExploreOptions& options = {});

// Three-valued possibly(φ) search: `complete` is true when the answer is
// exact (a witness was found, or the whole lattice was searched); false
// means the budget stopped the search first — no witness is *not* a "no".
// The witness is the first satisfying cut in BFS order.
struct CutSearchResult {
  std::optional<Cut> witness;
  bool complete = true;
  ExploreResult explore;
};

CutSearchResult possibly(const VectorClocks& clocks, const CutPredicate& phi,
                         const ExploreOptions& options = {});

// Three-valued definitely(φ): every run passes through a cut satisfying φ.
// Equivalent to: no monotone path of ¬φ-cuts from the initial to the final
// cut, so the BFS admits only ¬φ successors and stops (holds = false) as
// soon as the final cut is generated. The ¬φ region is not down-closed (a
// cut's canonical parent may satisfy φ while another parent does not), so
// this search alone generates every successor of a level and keeps the
// first occurrence of each cut through a hash index; its level order is
// first-generation order. `decided` is false when the budget stopped the
// search before it could prove either direction. φ(⊥) is checked before any
// charge. options.admit must be null: the search defines its own
// restriction.
struct DefinitelyDecision {
  bool decided = true;
  bool holds = false;
  ExploreResult explore;
};

DefinitelyDecision definitely(const VectorClocks& clocks,
                              const CutPredicate& phi,
                              const ExploreOptions& options = {});

struct LatticeStats {
  std::uint64_t cutCount = 0;   // number of consistent cuts counted so far
  int levels = 0;               // height of the lattice (final level + 1)
  std::uint64_t maxWidth = 0;   // widest level
  bool complete = true;         // false when a budget stopped the BFS early
};

// Counts the lattice level by level. The lattice can be exponential in the
// computation (PAPER.md), so a caller that is not prepared to wait must pass
// a Budget: each counted cut is charged as one cut, and when the budget
// trips the partial stats come back with complete == false.
LatticeStats latticeStats(const VectorClocks& clocks,
                          const ExploreOptions& options = {});

}  // namespace gpd::lattice
