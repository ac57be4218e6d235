#include "detect/detector.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

TEST(DetectorTest, ConjunctiveDispatchesToCpdhb) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false, true});
  trace.defineBool(1, "y", {false, true});
  Detector det(trace);
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(1, "y")}};
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "cpdhb");
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
}

TEST(DetectorTest, SingularCnfUsesSpecialCaseWhenApplicable) {
  Rng rng(11);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 5;
  opt.messageProbability = 0.6;
  opt.discipline = OrderingDiscipline::ReceiveOrdered;
  const Computation c = randomGroupedComputation(opt, rng);
  VariableTrace trace(c);
  defineRandomBools(trace, "x", 0.4, rng);
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{2, "x", true}, {3, "x", false}}};
  Detector det(trace);
  det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "cpdsc-special-case");
}

TEST(DetectorTest, SingularCnfFallsBackToChainCover) {
  // Crossing receives inside both groups defeat both orderings.
  ComputationBuilder b(4);
  const EventId s1 = b.appendEvent(2);
  const EventId s2 = b.appendEvent(3);
  const EventId r1 = b.appendEvent(0);
  const EventId r2 = b.appendEvent(1);
  const EventId s3 = b.appendEvent(0);
  const EventId s4 = b.appendEvent(1);
  const EventId r3 = b.appendEvent(2);
  const EventId r4 = b.appendEvent(3);
  b.addMessage(s1, r1);
  b.addMessage(s2, r2);
  b.addMessage(s3, r3);
  b.addMessage(s4, r4);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  for (ProcessId p = 0; p < 4; ++p) {
    trace.defineBool(p, "x", std::vector<bool>(c.eventCount(p), true));
  }
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{2, "x", true}, {3, "x", true}}};
  Detector det(trace);
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "singular-chain-cover");
  EXPECT_TRUE(cut.has_value());
}

TEST(DetectorTest, NonSingularCnfWithSkeletonSlicesFirst) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {true, false});
  trace.defineBool(1, "y", {true});
  CnfPredicate pred;
  // The single-process second clause is a regular skeleton: the planner
  // routes the lattice search through the slice-first pre-pass.
  pred.clauses = {{{0, "x", true}, {1, "y", true}}, {{0, "x", false}}};
  Detector det(trace);
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "slice-first");
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
  ASSERT_TRUE(det.lastSlice().has_value());
  EXPECT_TRUE(det.lastSlice()->usedSlice);
  EXPECT_EQ(det.lastSlice()->eventsTotal, 3u);

  // Forcing slicing off must reproduce the historical unsliced path with
  // the same verdict.
  det.enableSlicing(false);
  const auto unsliced = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration");
  ASSERT_TRUE(unsliced.has_value());
  EXPECT_EQ(*unsliced, *cut);
  EXPECT_FALSE(det.lastSlice().has_value());
}

TEST(DetectorTest, NonSingularCnfWithoutSkeletonUsesLattice) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {true, false});
  trace.defineBool(1, "y", {false, true});
  CnfPredicate pred;
  // Every clause spans both processes: no regular skeleton to slice on.
  pred.clauses = {{{0, "x", true}, {1, "y", true}},
                  {{0, "x", false}, {1, "y", false}}};
  Detector det(trace);
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration");
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
  EXPECT_FALSE(det.lastSlice().has_value());
}

TEST(DetectorTest, SumDispatch) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 1});
  trace.define(1, "x", {0, 1});
  Detector det(trace);

  SumPredicate ge{{{0, "x"}, {1, "x"}}, Relop::GreaterEq, 2};
  EXPECT_TRUE(det.possibly(ge).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "min-cut-extrema");

  SumPredicate eq{{{0, "x"}, {1, "x"}}, Relop::Equal, 1};
  EXPECT_TRUE(det.possibly(eq).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "theorem-7-exact-sum");
}

TEST(DetectorTest, UnboundedExactSumFallsBackToLattice) {
  ComputationBuilder b(1);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 7});
  Detector det(trace);
  SumPredicate eq{{{0, "x"}}, Relop::Equal, 7};
  EXPECT_TRUE(det.possibly(eq).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration");
  eq.k = 3;
  EXPECT_FALSE(det.possibly(eq).has_value());
}

TEST(DetectorTest, SymmetricAndDefinitely) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false, true});
  trace.defineBool(1, "x", {false});
  Detector det(trace);

  std::vector<SumTerm> vars{{0, "x"}, {1, "x"}};
  const auto nae = notAllEqual(vars);
  EXPECT_TRUE(det.possibly(nae).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "symmetric-exact-sum-disjunction");
  // p0 must eventually flip to true and p1 stays false: in every run the
  // states diverge at the end, but the initial state is all-false... the
  // *final* cut always has exactly one true — definitely holds.
  EXPECT_TRUE(det.definitely(nae));

  SumPredicate eq{vars, Relop::Equal, 1};
  EXPECT_TRUE(det.definitely(eq));
  EXPECT_EQ(det.lastAlgorithm(), "theorem-7-definitely");
}

// Ground truth for the facade cross-check: the by-name predicate evaluated
// by the exhaustive lattice, which shares no code with the plan walk.
template <typename Pred>
bool holds(const Pred& pred, const VariableTrace& trace, const Cut& cut) {
  return pred.holdsAtCut(trace, cut);
}

bool holds(const BoolExpr& expr, const VariableTrace& trace, const Cut& cut) {
  return expr.evaluate(trace, cut);
}

// Slice accounting minus its wall time, for equality checks.
std::string sliceKey(const std::optional<SliceTrace>& s) {
  if (!s.has_value()) return "none";
  std::ostringstream os;
  os << s->eventsTotal << ':' << s->eventsExcluded << ':' << s->predictedCuts
     << ':' << s->predictedSaturated << ':' << s->exploredCuts << ':'
     << s->oracleCalls << ':' << s->usedSlice;
  return os.str();
}

// The unbudgeted query matches the lattice verdict, and lastAlgorithm() /
// lastSlice() match what its budgeted twin reports under a generous budget.
template <typename Pred>
void expectPossiblyMatchesLattice(Detector& det, const VariableTrace& trace,
                                  const Pred& pred, const std::string& label) {
  const bool expected = lattice::possibly(det.clocks(), [&](const Cut& cut) {
                          return holds(pred, trace, cut);
                        }).witness.has_value();
  const std::optional<Cut> cut = det.possibly(pred);
  const std::string algorithm = det.lastAlgorithm();
  const std::string slice = sliceKey(det.lastSlice());
  EXPECT_EQ(cut.has_value(), expected) << label;
  if (cut.has_value()) {
    EXPECT_TRUE(det.clocks().isConsistent(*cut)) << label;
    EXPECT_TRUE(holds(pred, trace, *cut)) << label;
  }
  control::BudgetLimits limits;
  limits.deadlineMillis = 60000;  // never trips in a unit test
  control::Budget budget(limits);
  const Detection d = det.possibly(pred, budget);
  EXPECT_EQ(d.algorithm, algorithm) << label;
  EXPECT_EQ(sliceKey(d.slice), slice) << label;
  EXPECT_EQ(sliceKey(det.lastSlice()), slice) << label;
}

template <typename Pred>
void expectDefinitelyMatchesLattice(Detector& det, const VariableTrace& trace,
                                    const Pred& pred,
                                    const std::string& label) {
  const bool expected = lattice::definitely(det.clocks(), [&](const Cut& cut) {
                          return holds(pred, trace, cut);
                        }).holds;
  EXPECT_EQ(det.definitely(pred), expected) << label;
  const std::string algorithm = det.lastAlgorithm();
  control::BudgetLimits limits;
  limits.deadlineMillis = 60000;
  control::Budget budget(limits);
  const Detection d = det.definitely(pred, budget);
  EXPECT_EQ(d.algorithm, algorithm) << label;
  EXPECT_EQ(sliceKey(d.slice), sliceKey(det.lastSlice())) << label;
}

// Cross-check the facade against ground truth on random inputs of every
// class it serves, slicing on and off.
TEST(DetectorTest, FacadeMatchesLatticeEverywhere) {
  Rng rng(31415);
  std::set<std::string> algorithms;
  for (int trial = 0; trial < 30; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    opt.discipline = trial % 3 == 0 ? OrderingDiscipline::None
                     : trial % 3 == 1 ? OrderingDiscipline::ReceiveOrdered
                                      : OrderingDiscipline::SendOrdered;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.35, rng);
    defineRandomCounters(trace, "c1", 0, 1, rng);  // |Δ| ≤ 1: Theorem 7
    defineRandomCounters(trace, "c2", 0, 2, rng);  // |Δ| > 1: lattice only
    Detector det(trace);

    ConjunctivePredicate conj;
    for (ProcessId p = 0; p < 4; ++p) {
      conj.terms.push_back(rng.chance(0.7) ? varTrue(p, "x")
                                           : varFalse(p, "x"));
    }
    CnfPredicate singular;
    singular.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                        {{2, "x", rng.chance(0.5)}, {3, "x", true}}};
    CnfPredicate nonSingular;  // clauses share process 1: no skeleton
    nonSingular.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                           {{1, "x", rng.chance(0.5)}, {2, "x", true}}};
    CnfPredicate sliceFirst = singular;  // + a single-process clause
    sliceFirst.clauses.push_back({{0, "x", rng.chance(0.5)}});
    std::vector<SumTerm> bools;
    std::vector<SumTerm> c1;
    std::vector<SumTerm> c2;
    for (ProcessId p = 0; p < 4; ++p) {
      bools.push_back({p, "x"});
      c1.push_back({p, "c1"});
      c2.push_back({p, "c2"});
    }
    const std::int64_t k = rng.uniform(-1, 2);
    const SumPredicate sumGe{c1, Relop::GreaterEq, k};
    const SumPredicate sumEq{c1, Relop::Equal, k};
    const SumPredicate sumEqWide{c2, Relop::Equal, 2 * k};
    const SymmetricPredicate sym =
        trial % 2 == 0 ? notAllEqual(bools) : exactlyK(bools, 2);
    const BoolExprPtr expr = BoolExpr::disjunction(
        {BoolExpr::conjunction({BoolExpr::var(0, "x"), BoolExpr::var(1, "x")}),
         BoolExpr::conjunction({BoolExpr::negate(BoolExpr::var(2, "x")),
                                BoolExpr::var(3, "x")})});

    const std::string t = "trial " + std::to_string(trial);
    for (const bool slicing : {true, false}) {
      det.enableSlicing(slicing);
      const std::string l = t + (slicing ? " sliced " : " unsliced ");
      expectPossiblyMatchesLattice(det, trace, singular, l + "singular-cnf");
      algorithms.insert(det.lastAlgorithm());
      expectPossiblyMatchesLattice(det, trace, sliceFirst, l + "slice-first");
      algorithms.insert(det.lastAlgorithm());
    }
    det.enableSlicing(true);
    expectPossiblyMatchesLattice(det, trace, conj, t + " conj");
    expectPossiblyMatchesLattice(det, trace, nonSingular, t + " non-singular");
    algorithms.insert(det.lastAlgorithm());
    expectPossiblyMatchesLattice(det, trace, sumGe, t + " sum-ge");
    algorithms.insert(det.lastAlgorithm());
    expectPossiblyMatchesLattice(det, trace, sumEq, t + " sum-eq");
    algorithms.insert(det.lastAlgorithm());
    expectPossiblyMatchesLattice(det, trace, sumEqWide, t + " sum-eq-wide");
    algorithms.insert(det.lastAlgorithm());
    expectPossiblyMatchesLattice(det, trace, sym, t + " symmetric");
    algorithms.insert(det.lastAlgorithm());
    expectPossiblyMatchesLattice(det, trace, *expr, t + " expr");
    algorithms.insert(det.lastAlgorithm());

    expectDefinitelyMatchesLattice(det, trace, conj, t + " def-conj");
    algorithms.insert(det.lastAlgorithm());
    expectDefinitelyMatchesLattice(det, trace, nonSingular, t + " def-cnf");
    expectDefinitelyMatchesLattice(det, trace, sumGe, t + " def-sum-ge");
    expectDefinitelyMatchesLattice(det, trace, sumEq, t + " def-sum-eq");
    algorithms.insert(det.lastAlgorithm());
    expectDefinitelyMatchesLattice(det, trace, sumEqWide, t + " def-sum-wide");
    expectDefinitelyMatchesLattice(det, trace, sym, t + " def-sym");
    algorithms.insert(det.lastAlgorithm());
  }
  // The sweep must reach every branch of the dispatch table.
  for (const char* name :
       {"cpdsc-special-case", "singular-chain-cover", "slice-first",
        "lattice-enumeration", "min-cut-extrema", "theorem-7-exact-sum",
        "symmetric-exact-sum-disjunction", "dnf-decomposition",
        "interval-definitely", "theorem-7-definitely", "lattice-definitely"}) {
    EXPECT_EQ(algorithms.count(name), 1u) << name;
  }
}

}  // namespace
}  // namespace gpd::detect
