#include "detect/detector.h"

#include <gtest/gtest.h>

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

// Cross-check the facade against ground truth on random inputs of each class.
TEST(DetectorTest, FacadeMatchesLatticeEverywhere) {
  Rng rng(31415);
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
    const VectorClocks vc(c);
    Detector det(trace);

    CnfPredicate cnf;
    cnf.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                   {{2, "x", rng.chance(0.5)}, {3, "x", true}}};
    const bool expected = lattice::possibly(vc, [&](const Cut& cut) {
      return cnf.holdsAtCut(trace, cut);
    }).witness.has_value();
    EXPECT_EQ(det.possibly(cnf).has_value(), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gpd::detect
