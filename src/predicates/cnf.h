// CNF predicates over per-process boolean variables (paper Sec. 2.3/3).
//
// A predicate in CNF is *singular* iff no two clauses contain variables from
// the same process; a singular k-CNF predicate has exactly k literals per
// clause. Singular 1-CNF is exactly the conjunctive predicate class. The
// paper's Theorem 1 shows detection is NP-complete for k ≥ 2; Sections
// 3.2/3.3 give the algorithms implemented in src/detect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predicates/variable_trace.h"

namespace gpd {

struct BoolLiteral {
  ProcessId process = 0;
  std::string var;
  bool positive = true;

  bool holds(const VariableTrace& trace, int eventIndex) const {
    return (trace.value(process, var, eventIndex) != 0) == positive;
  }
};

using CnfClause = std::vector<BoolLiteral>;

struct CnfPredicate {
  std::vector<CnfClause> clauses;

  // The predicate resolved against one trace for repeated evaluation (the
  // lattice kernels call it once per cut): every literal holds its process
  // and a pointer into its variable's history, so holds() does no name
  // lookups. Agrees with holdsAtCut() on every cut. A literal whose
  // variable is not defined fails when it is evaluated, exactly as
  // holdsAtCut() fails; one whose process the trace lacks fails to bind.
  // Valid while the predicate and the trace live.
  class Bound {
   public:
    Bound(const CnfPredicate& pred, const VariableTrace& trace);
    bool holds(const Cut& cut) const;

   private:
    struct Literal {
      ProcessId process;
      bool positive;
      const std::int64_t* history;  // null: undefined, fails on evaluation
      const BoolLiteral* source;
    };
    const VariableTrace* trace_;
    std::vector<Literal> literals_;   // clause by clause
    std::vector<std::size_t> ends_;   // one past each clause's last literal
  };

  Bound bind(const VariableTrace& trace) const { return Bound(*this, trace); }

  // No two clauses contain variables from the same process.
  bool isSingular() const;

  // Every clause has exactly k literals.
  bool isKCnf(int k) const;

  // The set of processes hosting clause j's variables (duplicates removed).
  std::vector<ProcessId> clauseProcesses(int j) const;

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const;

  std::string toString() const;
};

}  // namespace gpd
