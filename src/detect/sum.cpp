#include "detect/sum.h"

#include <algorithm>

#include "flow/closure.h"
#include "lattice/explore.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

namespace {

// Per-event change to S (0 for initial events), plus S at the initial cut.
struct Deltas {
  std::vector<std::int64_t> perNode;
  std::int64_t base = 0;
};

std::int64_t maxAbsEventDelta(const Deltas& d) {
  std::int64_t best = 0;
  for (std::int64_t v : d.perNode) best = std::max(best, std::abs(v));
  return best;
}

Deltas sumDeltas(const VariableTrace& trace, const std::vector<SumTerm>& terms) {
  const Computation& comp = trace.computation();
  Deltas d;
  d.perNode.assign(comp.totalEvents(), 0);
  for (const SumTerm& t : terms) {
    d.base += trace.value(t.process, t.var, 0);
    for (int i = 1; i < comp.eventCount(t.process); ++i) {
      d.perNode[comp.node({t.process, i})] +=
          trace.value(t.process, t.var, i) - trace.value(t.process, t.var, i - 1);
    }
  }
  return d;
}

Cut cutFromClosure(const Computation& comp, const std::vector<char>& inSet) {
  Cut cut(std::vector<int>(comp.processCount(), 0));
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    int i = 1;
    while (i < comp.eventCount(p) && inSet[comp.node({p, i})]) ++i;
    cut.last[p] = i - 1;
  }
  return cut;
}

// Theorem 4 walk: execute the events of `target` one at a time from the
// initial cut (any topological order — every prefix is a consistent cut) and
// return the first cut whose running sum equals K. Requires |Δ| ≤ 1 and K
// between S(⊥) and S(target).
Cut walkUntilSum(const VectorClocks& clocks, const Deltas& deltas,
                 const Cut& target, std::int64_t k) {
  const Computation& comp = clocks.computation();
  Cut cut = initialCut(comp);
  std::int64_t sum = deltas.base;
  if (sum == k) return cut;
  const graph::Dag dag = comp.toDagWithoutInitialEdges();
  const auto order = dag.topologicalOrder();
  GPD_CHECK(order.has_value());
  for (int node : *order) {
    const EventId e = comp.event(node);
    if (e.isInitial() || !target.contains(e)) continue;
    GPD_DCHECK(cut.last[e.process] + 1 == e.index);
    ++cut.last[e.process];
    sum += deltas.perNode[node];
    if (sum == k) return cut;
  }
  GPD_CHECK_MSG(false, "intermediate-value walk missed K — |Δ| > 1?");
  return cut;
}

}  // namespace

SumExtrema sumExtrema(const VectorClocks& clocks, const VariableTrace& trace,
                      const std::vector<SumTerm>& terms) {
  const Computation& comp = clocks.computation();
  const Deltas deltas = sumDeltas(trace, terms);
  // Ideals (down-closed sets) of the event order are closures of the
  // *reversed* DAG; initial events carry weight 0, so whether the closure
  // includes them is irrelevant to the optimum and cutFromClosure only reads
  // non-initial membership.
  const graph::Dag reversed = comp.toDagWithoutInitialEdges().reversed();

  SumExtrema ext;
  const auto maxRes = flow::maxWeightClosure(reversed, deltas.perNode);
  ext.maxSum = deltas.base + maxRes.weight;
  ext.argMax = cutFromClosure(comp, maxRes.inClosure);

  std::vector<std::int64_t> negated(deltas.perNode.size());
  for (std::size_t i = 0; i < negated.size(); ++i) negated[i] = -deltas.perNode[i];
  const auto minRes = flow::maxWeightClosure(reversed, negated);
  ext.minSum = deltas.base - minRes.weight;
  ext.argMin = cutFromClosure(comp, minRes.inClosure);

  GPD_DCHECK(clocks.isConsistent(ext.argMax));
  GPD_DCHECK(clocks.isConsistent(ext.argMin));
  return ext;
}

std::optional<Cut> possiblySum(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const SumPredicate& pred) {
  GPD_TRACE_SPAN("detect.sum.possibly");
  const SumExtrema ext = sumExtrema(clocks, trace, pred.terms);
  switch (pred.relop) {
    case Relop::Less:
      if (ext.minSum < pred.k) return ext.argMin;
      return std::nullopt;
    case Relop::LessEq:
      if (ext.minSum <= pred.k) return ext.argMin;
      return std::nullopt;
    case Relop::Greater:
      if (ext.maxSum > pred.k) return ext.argMax;
      return std::nullopt;
    case Relop::GreaterEq:
      if (ext.maxSum >= pred.k) return ext.argMax;
      return std::nullopt;
    case Relop::NotEqual:
      if (ext.minSum != pred.k) return ext.argMin;
      if (ext.maxSum != pred.k) return ext.argMax;
      return std::nullopt;  // S is identically K
    case Relop::Equal:
      break;  // handled below
  }
  // Theorem 7(1): with |Δ| ≤ 1, possibly(S = K) ⟺
  // (S(⊥) ≤ K ∧ possibly(S ≥ K)) ∨ (S(⊥) ≥ K ∧ possibly(S ≤ K)).
  const Deltas deltas = sumDeltas(trace, pred.terms);
  GPD_CHECK_MSG(maxAbsEventDelta(deltas) <= 1,
                "Theorem 4 requires every event to change the sum by at most "
                "1; use detectExactSumExhaustive for arbitrary deltas");
  if (deltas.base <= pred.k && ext.maxSum >= pred.k) {
    return walkUntilSum(clocks, deltas, ext.argMax, pred.k);
  }
  if (deltas.base >= pred.k && ext.minSum <= pred.k) {
    return walkUntilSum(clocks, deltas, ext.argMin, pred.k);
  }
  return std::nullopt;
}

std::optional<Cut> detectExactSumExhaustive(const VectorClocks& clocks,
                                            const VariableTrace& trace,
                                            const SumPredicate& pred) {
  return detectExactSumBudgeted(clocks, trace, pred, nullptr).cut;
}

ExactSumSearch detectExactSumBudgeted(const VectorClocks& clocks,
                                      const VariableTrace& trace,
                                      const SumPredicate& pred,
                                      control::Budget* budget) {
  GPD_CHECK(pred.relop == Relop::Equal);
  GPD_TRACE_SPAN("detect.sum.exact_search");
  const lattice::CutSearchResult search = lattice::possibly(
      clocks,
      [&](const Cut& cut) { return pred.sumAtCut(trace, cut) == pred.k; },
      {budget});
  ExactSumSearch result;
  result.cut = search.witness;
  result.complete = search.complete;
  result.explore = search.explore;
  return result;
}

bool definitelySum(const VectorClocks& clocks, const VariableTrace& trace,
                   const SumPredicate& pred) {
  const SumDecision decision =
      definitelySumBudgeted(clocks, trace, pred, nullptr);
  GPD_CHECK(decision.decided);
  return decision.holds;
}

SumDecision definitelySumBudgeted(const VectorClocks& clocks,
                                  const VariableTrace& trace,
                                  const SumPredicate& pred,
                                  control::Budget* budget) {
  GPD_TRACE_SPAN("detect.sum.definitely");
  SumDecision result;
  if (pred.relop != Relop::Equal) {
    const lattice::DefinitelyDecision d = lattice::definitely(
        clocks,
        [&](const Cut& cut) { return pred.holdsAtCut(trace, cut); }, {budget});
    result.decided = d.decided;
    result.holds = d.decided && d.holds;
    return result;
  }
  // Theorem 7(2): with |Δ| ≤ 1, definitely(S = K) ⟺
  // (S(⊥) ≤ K ∧ definitely(S ≥ K)) ∨ (S(⊥) ≥ K ∧ definitely(S ≤ K)).
  // Tri-valued disjunction: a branch decided true settles the predicate even
  // when the other branch ran out of budget; "false" needs every applicable
  // branch decided false.
  const Deltas deltas = sumDeltas(trace, pred.terms);
  GPD_CHECK_MSG(maxAbsEventDelta(deltas) <= 1,
                "Theorem 7(2) requires every event to change the sum by at "
                "most 1");
  const auto sumAt = [&](const Cut& cut) { return pred.sumAtCut(trace, cut); };
  bool anyUndecided = false;
  if (deltas.base <= pred.k) {
    const lattice::DefinitelyDecision d = lattice::definitely(
        clocks, [&](const Cut& c) { return sumAt(c) >= pred.k; }, {budget});
    if (d.decided && d.holds) {
      result.holds = true;
      return result;
    }
    anyUndecided |= !d.decided;
  }
  if (deltas.base >= pred.k) {
    const lattice::DefinitelyDecision d = lattice::definitely(
        clocks, [&](const Cut& c) { return sumAt(c) <= pred.k; }, {budget});
    if (d.decided && d.holds) {
      result.holds = true;
      return result;
    }
    anyUndecided |= !d.decided;
  }
  result.decided = !anyUndecided;
  result.holds = false;
  return result;
}

}  // namespace gpd::detect
