#include "detect/dnf_detect.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

BoolExprPtr randomExpr(int procs, int depth, Rng& rng) {
  if (depth == 0 || rng.chance(0.35)) {
    return BoolExpr::var(static_cast<ProcessId>(rng.index(procs)), "x");
  }
  switch (rng.index(3)) {
    case 0:
      return BoolExpr::negate(randomExpr(procs, depth - 1, rng));
    case 1: {
      std::vector<BoolExprPtr> kids;
      for (int i = 0; i < 2; ++i) kids.push_back(randomExpr(procs, depth - 1, rng));
      return BoolExpr::conjunction(std::move(kids));
    }
    default: {
      std::vector<BoolExprPtr> kids;
      for (int i = 0; i < 2; ++i) kids.push_back(randomExpr(procs, depth - 1, rng));
      return BoolExpr::disjunction(std::move(kids));
    }
  }
}

TEST(DnfDetectTest, SimpleDisjunctionFindsWitness) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true});
  t.defineBool(1, "x", {false, false});
  const VectorClocks vc(c);
  // x@p0 ∨ x@p1: only p0 can supply it.
  const auto expr = BoolExpr::disjunction(
      {BoolExpr::var(0, "x"), BoolExpr::var(1, "x")});
  const DnfResult res = possiblyExpression(vc, t, *expr);
  ASSERT_TRUE(res.cut.has_value());
  EXPECT_TRUE(expr->evaluate(t, *res.cut));
  EXPECT_EQ(res.termsTotal, 2u);
}

TEST(DnfDetectTest, ContradictionNeverDetected) {
  ComputationBuilder b(1);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace t(c);
  t.defineBool(0, "x", {true, false});
  const VectorClocks vc(c);
  const auto x = BoolExpr::var(0, "x");
  const auto expr = BoolExpr::conjunction({x, BoolExpr::negate(x)});
  const DnfResult res = possiblyExpression(vc, t, *expr);
  EXPECT_FALSE(res.cut.has_value());
  EXPECT_EQ(res.termsTotal, 0u);
}

TEST(DnfDetectTest, MixedLiteralsOnOneProcess) {
  // (x ∧ ¬y)@p0 ∧ x@p1: per-process conjunction of literals.
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, true});
  t.defineBool(0, "y", {true, true, false});
  t.defineBool(1, "x", {false, true});
  for (ProcessId p = 0; p < 2; ++p) {
    if (!t.has(p, "y")) t.defineBool(p, "y", std::vector<bool>(c.eventCount(p), false));
  }
  const VectorClocks vc(c);
  const auto expr = BoolExpr::conjunction(
      {BoolExpr::var(0, "x"), BoolExpr::negate(BoolExpr::var(0, "y")),
       BoolExpr::var(1, "x")});
  const DnfResult res = possiblyExpression(vc, t, *expr);
  ASSERT_TRUE(res.cut.has_value());
  // Only event (0,2) has x ∧ ¬y on p0.
  EXPECT_EQ(res.cut->last[0], 2);
}

// Headline property: DNF-decomposed detection ≡ lattice search for random
// expressions over random computations.
TEST(DnfDetectTest, MatchesLatticeOnRandomExpressions) {
  Rng rng(6174);
  int found = 0;
  for (int trial = 0; trial < 80; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(3));
    opt.messageProbability = rng.real() * 0.7;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.4, rng);
    const auto expr = randomExpr(3, 3, rng);
    const VectorClocks vc(c);
    const DnfResult res = possiblyExpression(vc, trace, *expr);
    const bool expected = lattice::possibly(vc, [&](const Cut& cut) {
      return expr->evaluate(trace, cut);
    }).witness.has_value();
    ASSERT_EQ(res.cut.has_value(), expected)
        << "trial " << trial << " expr " << expr->toString();
    if (res.cut) {
      ++found;
      EXPECT_TRUE(vc.isConsistent(*res.cut));
      EXPECT_TRUE(expr->evaluate(trace, *res.cut));
    }
  }
  EXPECT_GT(found, 20);
}

}  // namespace
}  // namespace gpd::detect
