#include "detect/cpdhb.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

TEST(CpdhbTest, EmptyChainListTriviallyFound) {
  ComputationBuilder b(1);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const auto res = findConsistentSelection(vc, {});
  EXPECT_TRUE(res.found);
}

TEST(CpdhbTest, EmptyChainMeansNotFound) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  std::vector<Chain> chains(2);
  chains[0].events = {{0, 1}};
  const auto res = findConsistentSelection(vc, chains);
  EXPECT_FALSE(res.found);
}

TEST(CpdhbTest, ConcurrentTrueEventsFound) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  std::vector<Chain> chains(2);
  chains[0].events = {{0, 1}};
  chains[1].events = {{1, 1}};
  const auto res = findConsistentSelection(vc, chains);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.witness.size(), 2u);
  ASSERT_TRUE(res.cut.has_value());
  EXPECT_TRUE(vc.isConsistent(*res.cut));
}

TEST(CpdhbTest, MessageOrderingEliminatesEarlyEvent) {
  // p0: e1(true) e2 --msg--> p1: f1(true); e1's successor e2 precedes f1,
  // so {e1, f1} is inconsistent and there is no other pair.
  ComputationBuilder b(2);
  const EventId e1 = b.appendEvent(0);
  const EventId e2 = b.appendEvent(0);
  const EventId f1 = b.appendEvent(1);
  b.addMessage(e2, f1);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  std::vector<Chain> chains(2);
  chains[0].events = {e1};
  chains[1].events = {f1};
  EXPECT_FALSE(findConsistentSelection(vc, chains).found);
}

TEST(CpdhbTest, AdvancesToLaterTrueEvent) {
  // As above but p0 has a second true event after the send.
  ComputationBuilder b(2);
  const EventId e1 = b.appendEvent(0);
  const EventId e2 = b.appendEvent(0);
  const EventId e3 = b.appendEvent(0);
  const EventId f1 = b.appendEvent(1);
  b.addMessage(e2, f1);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  std::vector<Chain> chains(2);
  chains[0].events = {e1, e3};
  chains[1].events = {f1};
  const auto res = findConsistentSelection(vc, chains);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.witness[0], e3);
  EXPECT_EQ(res.witness[1], f1);
}

TEST(CpdhbTest, DuplicateEventAcrossChains) {
  ComputationBuilder b(2);
  const EventId e1 = b.appendEvent(0);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  std::vector<Chain> chains(2);
  chains[0].events = {e1};
  chains[1].events = {e1};
  const auto res = findConsistentSelection(vc, chains);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.witness[0], res.witness[1]);
}

TEST(CpdhbTest, RejectsTwoTermsOnOneProcess) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace t(c);
  t.defineBool(0, "x", {true, true});
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(0, "x")}};
  EXPECT_THROW(detectConjunctive(t, pred), CheckFailure);
}

// The headline property: CPDHB ≡ exhaustive lattice search for conjunctive
// predicates, over many random computations and traces.
TEST(CpdhbTest, MatchesLatticeGroundTruth) {
  Rng rng(2025);
  int foundCount = 0;
  for (int trial = 0; trial < 120; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(3));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(5));
    opt.messageProbability = rng.real() * 0.8;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.3 + 0.4 * rng.real(), rng);
    ConjunctivePredicate pred;
    for (ProcessId p = 0; p < c.processCount(); ++p) {
      pred.terms.push_back(varTrue(p, "x"));
    }
    const VectorClocks vc(c);
    const auto res = detectConjunctive(vc, trace, pred);
    const bool expected = lattice::possibly(vc, [&](const Cut& cut) {
      return pred.holdsAtCut(trace, cut);
    }).witness.has_value();
    ASSERT_EQ(res.found, expected) << "trial " << trial;
    if (res.found) {
      ++foundCount;
      ASSERT_TRUE(res.cut.has_value());
      EXPECT_TRUE(vc.isConsistent(*res.cut));
      EXPECT_TRUE(pred.holdsAtCut(trace, *res.cut));
      for (const EventId& e : res.witness) {
        EXPECT_TRUE(res.cut->passesThrough(e));
      }
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(foundCount, 10);
  EXPECT_LT(foundCount, 110);
}

// Subset-of-processes conjunctions (Observation 1: witnesses need not cover
// every process).
TEST(CpdhbTest, PartialProcessConjunctions) {
  Rng rng(31337);
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 4;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.4, rng);
    ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(2, "x")}};
    const VectorClocks vc(c);
    const auto res = detectConjunctive(vc, trace, pred);
    const bool expected = lattice::possibly(vc, [&](const Cut& cut) {
      return pred.holdsAtCut(trace, cut);
    }).witness.has_value();
    EXPECT_EQ(res.found, expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gpd::detect
