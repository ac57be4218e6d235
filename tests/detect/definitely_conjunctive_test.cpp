#include "detect/definitely_conjunctive.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

Computation flat(int procs, int events) {
  ComputationBuilder b(procs);
  for (ProcessId p = 0; p < procs; ++p) {
    for (int i = 0; i < events; ++i) b.appendEvent(p);
  }
  return std::move(b).build();
}

TEST(TrueIntervalsTest, ExtractsMaximalRuns) {
  const Computation c = flat(1, 6);
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, true, false, true, false, true});
  const auto intervals = trueIntervals(t, varTrue(0, "x"));
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[0], (TrueInterval{{0, 1}, {0, 2}}));
  EXPECT_EQ(intervals[1], (TrueInterval{{0, 4}, {0, 4}}));
  EXPECT_EQ(intervals[2], (TrueInterval{{0, 6}, {0, 6}}));
}

TEST(TrueIntervalsTest, AlwaysTrueIsOneInterval) {
  const Computation c = flat(1, 3);
  VariableTrace t(c);
  t.defineBool(0, "x", {true, true, true, true});
  const auto intervals = trueIntervals(t, varTrue(0, "x"));
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0], (TrueInterval{{0, 0}, {0, 3}}));
}

TEST(DefinitelyConjunctiveTest, NeverTrueConjunctFails) {
  const Computation c = flat(2, 2);
  VariableTrace t(c);
  t.defineBool(0, "x", {true, true, true});
  t.defineBool(1, "x", {false, false, false});
  const VectorClocks vc(c);
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(1, "x")}};
  EXPECT_FALSE(definitelyConjunctive(vc, t, pred).holds);
}

TEST(DefinitelyConjunctiveTest, AlwaysTrueEverywhereHolds) {
  const Computation c = flat(3, 2);
  VariableTrace t(c);
  for (ProcessId p = 0; p < 3; ++p) {
    t.defineBool(p, "x", {true, true, true});
  }
  const VectorClocks vc(c);
  ConjunctivePredicate pred{
      {varTrue(0, "x"), varTrue(1, "x"), varTrue(2, "x")}};
  const auto res = definitelyConjunctive(vc, t, pred);
  EXPECT_TRUE(res.holds);
  ASSERT_EQ(res.witness.size(), 3u);
}

TEST(DefinitelyConjunctiveTest, PossiblyButNotDefinitely) {
  // Both true only in the middle of independent processes: a run can pass
  // them at different times.
  const Computation c = flat(2, 2);
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, false});
  t.defineBool(1, "x", {false, true, false});
  const VectorClocks vc(c);
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(1, "x")}};
  EXPECT_FALSE(definitelyConjunctive(vc, t, pred).holds);
  EXPECT_TRUE(lattice::possibly(vc, [&](const Cut& cut) {
    return pred.holdsAtCut(t, cut);
  }).witness.has_value());
}

TEST(DefinitelyConjunctiveTest, MessagesCanForceOverlap) {
  // p0 true from its start; p1 becomes true after receiving from p0's true
  // interval and stays true: every run has a moment with both true.
  ComputationBuilder b(2);
  const EventId s = b.appendEvent(0);
  b.appendEvent(0);
  const EventId r = b.appendEvent(1);
  b.addMessage(s, r);
  const Computation c = std::move(b).build();
  VariableTrace t(c);
  t.defineBool(0, "x", {true, true, true});
  t.defineBool(1, "x", {false, true});
  const VectorClocks vc(c);
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(1, "x")}};
  const auto res = definitelyConjunctive(vc, t, pred);
  EXPECT_TRUE(res.holds);
}

TEST(DefinitelyConjunctiveTest, EmptyPredicateHolds) {
  const Computation c = flat(2, 1);
  VariableTrace t(c);
  const VectorClocks vc(c);
  EXPECT_TRUE(definitelyConjunctive(vc, t, {}).holds);
}

TEST(DefinitelyConjunctiveTest, RejectsDuplicateProcess) {
  const Computation c = flat(2, 1);
  VariableTrace t(c);
  t.defineBool(0, "x", {true, true});
  const VectorClocks vc(c);
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(0, "x")}};
  EXPECT_THROW(definitelyConjunctive(vc, t, pred), CheckFailure);
}

// The headline property: the interval algorithm ≡ exhaustive lattice
// definitely, over many random computations and traces.
TEST(DefinitelyConjunctiveTest, MatchesLatticeGroundTruth) {
  Rng rng(86420);
  int holdCount = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(3));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(5));
    opt.messageProbability = rng.real() * 0.8;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.3 + 0.5 * rng.real(), rng);
    ConjunctivePredicate pred;
    for (ProcessId p = 0; p < c.processCount(); ++p) {
      pred.terms.push_back(varTrue(p, "x"));
    }
    const VectorClocks vc(c);
    const auto res = definitelyConjunctive(vc, trace, pred);
    const bool expected =
        lattice::definitely(vc, [&](const Cut& cut) {
          return pred.holdsAtCut(trace, cut);
        }).holds;
    ASSERT_EQ(res.holds, expected) << "trial " << trial;
    if (res.holds) {
      ++holdCount;
      // Witness intervals pairwise definitely-overlap.
      for (std::size_t i = 0; i < res.witness.size(); ++i) {
        for (std::size_t j = 0; j < res.witness.size(); ++j) {
          if (i == j) continue;
          const TrueInterval& a = res.witness[i];
          const TrueInterval& b = res.witness[j];
          if (b.hi.index + 1 < c.eventCount(b.hi.process)) {
            EXPECT_TRUE(
                vc.precedes(a.lo, {b.hi.process, b.hi.index + 1}));
          }
        }
      }
    }
  }
  EXPECT_GT(holdCount, 5);
  EXPECT_LT(holdCount, 145);
}

// Subset-of-processes conjunctions treat unmentioned processes as true.
TEST(DefinitelyConjunctiveTest, PartialConjunctionMatchesLattice) {
  Rng rng(97531);
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 4;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.6, rng);
    ConjunctivePredicate pred{{varTrue(1, "x"), varTrue(3, "x")}};
    const VectorClocks vc(c);
    const auto res = definitelyConjunctive(vc, trace, pred);
    const bool expected =
        lattice::definitely(vc, [&](const Cut& cut) {
          return pred.holdsAtCut(trace, cut);
        }).holds;
    EXPECT_EQ(res.holds, expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gpd::detect
