// Detection of relational sum predicates Σᵢ xᵢ relop K (paper Sec. 4).
//
// Inequality relops reduce to the extremum of S = Σᵢ xᵢ over all consistent
// cuts. Consistent cuts are exactly the down-closed sets (ideals) of the
// non-initial event poset, and S(C) = S(⊥) + Σ_{e ∈ C} Δ(e) where Δ(e) is
// the change event e applies — so the extremum is a maximum-weight closure
// problem over the event DAG, polynomial via min-cut (src/flow).
//
// Equality (the paper's contribution):
//  * |Δ| ≤ 1 per event: Theorem 4 (intermediate value along lattice paths)
//    gives possibly(S = K) ⟺ (S(⊥) ≤ K ∧ max S ≥ K) ∨ (S(⊥) ≥ K ∧ min S ≤ K)
//    (Theorem 7(1)); the witness is found by walking a path toward the
//    extremal cut until the running sum first hits K.
//  * arbitrary Δ: NP-complete (Theorem 2); detectExactSumExhaustive is the
//    lattice fallback, and src/reduction demonstrates the hardness via
//    subset sum.
//
// definitely(S relop K) is decided exactly against the lattice
// (lattice::definitely); Theorem 7(2) reduces definitely(S = K) with
// bounded Δ to the two inequality modalities, which definitelySumEquals
// implements.
#pragma once

#include <cstdint>
#include <optional>

#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "lattice/explore.h"
#include "predicates/relational.h"

namespace gpd::detect {

struct SumExtrema {
  std::int64_t minSum = 0;
  std::int64_t maxSum = 0;
  Cut argMin;
  Cut argMax;
};

// Extremum of S over all consistent cuts, via two max-weight-closure solves.
SumExtrema sumExtrema(const VectorClocks& clocks, const VariableTrace& trace,
                      const std::vector<SumTerm>& terms);

// possibly(Σ xᵢ relop K): returns a witness cut, or nullopt. For
// Relop::Equal the Theorem 4 precondition |Δ| ≤ 1 is enforced (GPD_CHECK);
// all other relops work for arbitrary Δ.
std::optional<Cut> possiblySum(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const SumPredicate& pred);

// Exhaustive possibly for Relop::Equal with arbitrary Δ (Theorem 2 says
// nothing better exists in general): lattice search.
std::optional<Cut> detectExactSumExhaustive(const VectorClocks& clocks,
                                            const VariableTrace& trace,
                                            const SumPredicate& pred);

// Budgeted lattice search for Relop::Equal with arbitrary Δ. A cut is always
// a genuine witness; complete=false means the lattice was not exhausted, so
// an absent cut is "unknown" rather than "no".
struct ExactSumSearch {
  std::optional<Cut> cut;
  bool complete = true;
  lattice::ExploreResult explore;
};
ExactSumSearch detectExactSumBudgeted(const VectorClocks& clocks,
                                      const VariableTrace& trace,
                                      const SumPredicate& pred,
                                      control::Budget* budget);

// definitely(Σ xᵢ relop K), exact (lattice-based for the inequality
// modalities; Relop::Equal uses the Theorem 7(2) reduction and requires
// |Δ| ≤ 1).
bool definitelySum(const VectorClocks& clocks, const VariableTrace& trace,
                   const SumPredicate& pred);

// Budgeted definitely. decided=false means the budget stopped the lattice
// analysis before either answer was provable; for Relop::Equal the
// Theorem 7(2) disjunction stays sound — a branch proved true decides the
// whole predicate even when the sibling branch was cut short.
struct SumDecision {
  bool decided = true;
  bool holds = false;
};
SumDecision definitelySumBudgeted(const VectorClocks& clocks,
                                  const VariableTrace& trace,
                                  const SumPredicate& pred,
                                  control::Budget* budget);

}  // namespace gpd::detect
