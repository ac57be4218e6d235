#include "detect/sum.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "graph/linear_extension.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

std::vector<SumTerm> allTerms(const Computation& c, const std::string& var) {
  std::vector<SumTerm> terms;
  for (ProcessId p = 0; p < c.processCount(); ++p) terms.push_back({p, var});
  return terms;
}

// Ground-truth extrema by enumerating every consistent cut.
std::pair<std::int64_t, std::int64_t> bruteExtrema(
    const VectorClocks& vc, const VariableTrace& trace,
    const std::vector<SumTerm>& terms) {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool first = true;
  lattice::explore(vc, [&](const Cut& cut) {
    std::int64_t s = 0;
    for (const SumTerm& t : terms) s += trace.valueAtCut(cut, t.process, t.var);
    if (first) {
      lo = hi = s;
      first = false;
    } else {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    return true;
  });
  return {lo, hi};
}

TEST(SumExtremaTest, HandComputedExample) {
  // p0 counts 0,1,2 ; p1 counts 0,-1 ; message (0,1) → (1,1) constrains.
  ComputationBuilder b(2);
  const EventId s = b.appendEvent(0);
  b.appendEvent(0);
  const EventId r = b.appendEvent(1);
  b.addMessage(s, r);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 1, 2});
  trace.define(1, "x", {0, -1});
  const VectorClocks vc(c);
  const SumExtrema ext = sumExtrema(vc, trace, allTerms(c, "x"));
  // Consistent cuts: [0,0]=0 [1,0]=1 [2,0]=2 [1,1]=0 [2,1]=1.
  EXPECT_EQ(ext.minSum, 0);
  EXPECT_EQ(ext.maxSum, 2);
  EXPECT_EQ(ext.argMax.last, (std::vector<int>{2, 0}));
}

TEST(SumExtremaTest, MatchesBruteForceOnRandomTraces) {
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(3));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(4));
    opt.messageProbability = rng.real() * 0.8;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    // Arbitrary step sizes — extrema are polynomial regardless of Δ.
    defineRandomCounters(trace, "x", rng.uniform(-3, 3),
                         1 + static_cast<int>(rng.index(4)), rng);
    const VectorClocks vc(c);
    const auto terms = allTerms(c, "x");
    const SumExtrema ext = sumExtrema(vc, trace, terms);
    const auto [lo, hi] = bruteExtrema(vc, trace, terms);
    ASSERT_EQ(ext.minSum, lo) << "trial " << trial;
    ASSERT_EQ(ext.maxSum, hi) << "trial " << trial;
    // Witness cuts achieve the extrema and are consistent.
    EXPECT_TRUE(vc.isConsistent(ext.argMin));
    EXPECT_TRUE(vc.isConsistent(ext.argMax));
    std::int64_t sMin = 0;
    std::int64_t sMax = 0;
    for (const SumTerm& t : terms) {
      sMin += trace.valueAtCut(ext.argMin, t.process, t.var);
      sMax += trace.valueAtCut(ext.argMax, t.process, t.var);
    }
    EXPECT_EQ(sMin, lo);
    EXPECT_EQ(sMax, hi);
  }
}

TEST(PossiblySumTest, InequalityRelopsMatchLattice) {
  Rng rng(555);
  const Relop relops[] = {Relop::Less, Relop::LessEq, Relop::Greater,
                          Relop::GreaterEq, Relop::NotEqual};
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomCounters(trace, "x", 0, 2, rng);
    const VectorClocks vc(c);
    SumPredicate pred;
    pred.terms = allTerms(c, "x");
    pred.relop = relops[rng.index(5)];
    pred.k = rng.uniform(-4, 4);
    const auto witness = possiblySum(vc, trace, pred);
    const bool expected = lattice::possibly(vc, [&](const Cut& cut) {
      return pred.holdsAtCut(trace, cut);
    }).witness.has_value();
    ASSERT_EQ(witness.has_value(), expected)
        << "trial " << trial << " pred " << pred.toString();
    if (witness) {
      EXPECT_TRUE(vc.isConsistent(*witness));
      EXPECT_TRUE(pred.holdsAtCut(trace, *witness));
    }
  }
}

TEST(PossiblySumTest, ExactSumBoundedMatchesLattice) {
  Rng rng(808);
  int hits = 0;
  for (int trial = 0; trial < 80; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(3));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(4));
    opt.messageProbability = rng.real() * 0.7;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomCounters(trace, "x", 0, 1, rng);  // |Δ| ≤ 1
    const VectorClocks vc(c);
    SumPredicate pred;
    pred.terms = allTerms(c, "x");
    pred.relop = Relop::Equal;
    pred.k = rng.uniform(-3, 3);
    const auto witness = possiblySum(vc, trace, pred);
    const auto exhaustive = detectExactSumExhaustive(vc, trace, pred);
    ASSERT_EQ(witness.has_value(), exhaustive.has_value())
        << "trial " << trial << " K=" << pred.k;
    if (witness) {
      ++hits;
      EXPECT_TRUE(vc.isConsistent(*witness));
      EXPECT_EQ(pred.sumAtCut(trace, *witness), pred.k);
    }
  }
  EXPECT_GT(hits, 10);
}

TEST(PossiblySumTest, UnboundedDeltaRejectedForEquality) {
  ComputationBuilder b(1);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 5});
  const VectorClocks vc(c);
  SumPredicate pred{{{0, "x"}}, Relop::Equal, 3, };
  EXPECT_THROW(possiblySum(vc, trace, pred), CheckFailure);
  // The exhaustive fallback handles it.
  EXPECT_FALSE(detectExactSumExhaustive(vc, trace, pred).has_value());
  pred.k = 5;
  EXPECT_TRUE(detectExactSumExhaustive(vc, trace, pred).has_value());
}

TEST(PossiblySumTest, InitialCutWitnessWhenBaseEqualsK) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {2, 3});
  trace.define(1, "x", {5});
  const VectorClocks vc(c);
  SumPredicate pred{{{0, "x"}, {1, "x"}}, Relop::Equal, 7};
  const auto witness = possiblySum(vc, trace, pred);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->level(), 0);
}

// Theorem 7(2): definitely(S = K) ⟺ the inequality-modality disjunction.
// definitelySum implements the reduction; compare with the direct
// lattice-based definitely of S = K itself.
TEST(DefinitelySumTest, Theorem7ReductionMatchesDirectDefinitely) {
  Rng rng(919);
  int holds = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(2));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(3));
    opt.messageProbability = rng.real() * 0.7;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomCounters(trace, "x", 0, 1, rng);
    const VectorClocks vc(c);
    SumPredicate pred;
    pred.terms = allTerms(c, "x");
    pred.relop = Relop::Equal;
    pred.k = rng.uniform(-2, 2);
    const bool viaTheorem = definitelySum(vc, trace, pred);
    const bool direct = lattice::definitely(vc, [&](const Cut& cut) {
      return pred.sumAtCut(trace, cut) == pred.k;
    }).holds;
    ASSERT_EQ(viaTheorem, direct) << "trial " << trial << " K=" << pred.k;
    holds += viaTheorem;
  }
  EXPECT_GT(holds, 0);
}

TEST(DefinitelySumTest, InequalityModalities) {
  Rng rng(929);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.4;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomCounters(trace, "x", 0, 2, rng);
    const VectorClocks vc(c);
    SumPredicate pred;
    pred.terms = allTerms(c, "x");
    pred.relop = trial % 2 ? Relop::GreaterEq : Relop::LessEq;
    pred.k = rng.uniform(-3, 3);
    const bool got = definitelySum(vc, trace, pred);
    const bool expected = lattice::definitely(vc, [&](const Cut& cut) {
      return pred.holdsAtCut(trace, cut);
    }).holds;
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

// Theorem 4's intermediate-value statement itself, on random runs: along any
// path of the lattice, a |Δ| ≤ 1 sum visits every value between its
// endpoints.
TEST(Theorem4Test, IntermediateValueAlongRuns) {
  Rng rng(939);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomCounters(trace, "x", 0, 1, rng);
    const VectorClocks vc(c);
    const auto terms = allTerms(c, "x");
    // Walk one random run and record the sums visited.
    const graph::Dag dag = c.toDag();
    const auto order = graph::randomLinearExtension(dag, rng);
    Cut cut = initialCut(c);
    std::vector<std::int64_t> sums;
    int placed = 0;
    auto sumOf = [&](const Cut& cc) {
      std::int64_t s = 0;
      for (const SumTerm& t : terms) s += trace.valueAtCut(cc, t.process, t.var);
      return s;
    };
    for (int node : order) {
      const EventId e = c.event(node);
      cut.last[e.process] = e.index;
      if (++placed >= c.processCount()) sums.push_back(sumOf(cut));
    }
    for (std::size_t i = 0; i + 1 < sums.size(); ++i) {
      EXPECT_LE(std::abs(sums[i + 1] - sums[i]), 1);
    }
  }
}

}  // namespace
}  // namespace gpd::detect
