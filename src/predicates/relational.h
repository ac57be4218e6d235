// Relational (sum) predicates: Σᵢ xᵢ relop K (paper Sec. 4, after
// Tomlinson–Garg, equality included as the paper's extension).
//
// Each term names an integer variable on a process. The paper's results:
//   relop ∈ {<, ≤, >, ≥}  — polynomial (prior work; here via min-cut).
//   relop =               — NP-complete with arbitrary per-event changes
//                           (Thm 2), polynomial when every event changes its
//                           variable by at most 1 (Thms 4–7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predicates/local.h"
#include "predicates/variable_trace.h"

namespace gpd {

struct SumTerm {
  ProcessId process = 0;
  std::string var;
};

struct SumPredicate {
  std::vector<SumTerm> terms;
  Relop relop = Relop::Equal;
  std::int64_t k = 0;

  // The predicate resolved against one trace for repeated evaluation (the
  // lattice kernels call it once per cut): every term holds its process and
  // a pointer into its variable's history, so sum() does no name lookups.
  // Agrees with sumAtCut()/holdsAtCut() on every cut. A term whose variable
  // is not defined fails when it is evaluated, exactly as sumAtCut() fails;
  // one whose process the trace lacks fails to bind. Valid while the
  // predicate and the trace live.
  class Bound {
   public:
    Bound(const SumPredicate& pred, const VariableTrace& trace);
    std::int64_t sum(const Cut& cut) const;
    bool holds(const Cut& cut) const {
      return compare(sum(cut), pred_->relop, pred_->k);
    }

   private:
    struct Term {
      ProcessId process;
      const std::int64_t* history;  // null: undefined, fails on evaluation
      const SumTerm* source;
    };
    const SumPredicate* pred_;
    const VariableTrace* trace_;
    std::vector<Term> terms_;
  };

  Bound bind(const VariableTrace& trace) const { return Bound(*this, trace); }

  std::int64_t sumAtCut(const VariableTrace& trace, const Cut& cut) const {
    std::int64_t sum = 0;
    for (const SumTerm& t : terms) {
      sum += trace.valueAtCut(cut, t.process, t.var);
    }
    return sum;
  }

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    return compare(sumAtCut(trace, cut), relop, k);
  }

  // Max over terms of the per-variable per-event |Δ|.
  std::int64_t deltaBound(const VariableTrace& trace) const {
    std::int64_t bound = 0;
    for (const SumTerm& t : terms) {
      bound = std::max(bound, trace.maxAbsDelta(t.process, t.var));
    }
    return bound;
  }

  // Max over events of |ΔS| — the change a single event applies to the whole
  // sum (terms sharing a process accumulate). The Theorem 4/7 precondition
  // is eventDeltaBound(trace) <= 1.
  std::int64_t eventDeltaBound(const VariableTrace& trace) const;

  std::string toString() const;
};

}  // namespace gpd
