// General-case detection of singular CNF predicates (paper Sec. 3.3).
//
// Detection is NP-complete (Theorem 1), but two algorithms beat naive
// lattice enumeration exponentially:
//
//  (a) Process enumeration: pick one hosting process per clause-group and
//      run CPDHB on the per-process true-event queues — at most k^m
//      combinations for m clauses of k processes each, versus the
//      O(Πₚ |Eₚ|) states of the cut lattice.
//  (b) Chain cover (Dilworth): cover each group's true events by a minimum
//      set of causal chains and enumerate one chain per group — Π cⱼ
//      combinations where cⱼ ≤ k is the cover size (cⱼ beats k whenever
//      messages order true events across the group's processes).
//
// Both reduce to the chain-generalized CPDHB scan in detect/cpdhb.h, and
// both find a witness cut when the predicate possibly holds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "detect/cpdhb.h"
#include "par/pool.h"
#include "predicates/cnf.h"

namespace gpd::detect {

struct SingularCnfResult {
  bool found = false;
  std::optional<Cut> cut;
  std::vector<EventId> witness;        // one true event per clause
  std::uint64_t combinationsTried = 0; // CPDHB invocations performed
  std::uint64_t combinationsTotal = 0; // size of the enumeration space
  std::uint64_t comparisons = 0;       // total consistency checks
  // False when a budget stopped the enumeration early: found=false then
  // means "unknown", not "no" (a witness may hide among untried selections).
  bool complete = true;
};

// For each clause, the events on the clause's processes at which the clause
// is true (i.e., some literal of the clause holds). A cut satisfies the
// predicate iff it passes through one such event per clause (Observation 1).
// `admittedNode` (Computation::node-indexed, optional) drops events outside
// an admitted set — the slice-first odometer pruning: an event excluded from
// the regular skeleton's slice lies in no satisfying cut, so no selection
// through it can succeed (the verdict is preserved; the witness may move to
// a different, equally valid selection).
std::vector<std::vector<EventId>> clauseTrueEvents(
    const VariableTrace& trace, const CnfPredicate& pred,
    const std::vector<char>* admittedNode = nullptr);

// Sec. 3.3(a). Requires pred.isSingular(). The budget is charged one
// combination per CPDHB invocation; on exhaustion the result carries
// complete=false and the selections tried so far.
//
// With a pool, combinations fan out across the workers in deterministic
// index order: the verdict, witness (lowest satisfying combination index),
// combinationsTotal, complete flag, and progress (combinationsTried,
// comparisons, the budget's count) are bit-identical to the sequential
// scan for any thread count. A combination budget caps the scanned prefix
// to exactly the indices the sequential odometer would have charged, and
// charges made past a Yes are given back.
SingularCnfResult detectSingularByProcessEnumeration(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget = nullptr,
    par::Pool* pool = nullptr,
    const std::vector<char>* admittedNode = nullptr);

// Sec. 3.3(b). Requires pred.isSingular(). Budgeted and parallelized
// like (a).
SingularCnfResult detectSingularByChainCover(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget = nullptr,
    par::Pool* pool = nullptr,
    const std::vector<char>* admittedNode = nullptr);

// Minimum chain covers of each clause's true events; exposed for the A1
// ablation bench (cover sizes vs group sizes).
std::vector<std::vector<Chain>> clauseChainCovers(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred,
    const std::vector<char>* admittedNode = nullptr);

}  // namespace gpd::detect
