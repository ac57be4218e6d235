#include "detect/symmetric.h"

#include "lattice/explore.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

std::optional<Cut> possiblySymmetric(const VectorClocks& clocks,
                                     const VariableTrace& trace,
                                     const SymmetricPredicate& pred) {
  GPD_TRACE_SPAN("detect.symmetric.possibly");
  for (const SumPredicate& sum : pred.asExactSums()) {
    if (auto cut = possiblySum(clocks, trace, sum)) return cut;
  }
  return std::nullopt;
}

bool definitelySymmetric(const VectorClocks& clocks, const VariableTrace& trace,
                         const SymmetricPredicate& pred) {
  const SumDecision decision =
      definitelySymmetricBudgeted(clocks, trace, pred, nullptr);
  GPD_CHECK(decision.decided);
  return decision.holds;
}

SumDecision definitelySymmetricBudgeted(const VectorClocks& clocks,
                                        const VariableTrace& trace,
                                        const SymmetricPredicate& pred,
                                        control::Budget* budget) {
  GPD_TRACE_SPAN("detect.symmetric.definitely");
  const lattice::DefinitelyDecision d = lattice::definitely(
      clocks, [&](const Cut& cut) { return pred.holdsAtCut(trace, cut); },
      {budget});
  SumDecision result;
  result.decided = d.decided;
  result.holds = d.decided && d.holds;
  return result;
}

}  // namespace gpd::detect
