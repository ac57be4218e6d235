#include "detect/symmetric.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

std::vector<SumTerm> allVars(const Computation& c) {
  std::vector<SumTerm> out;
  for (ProcessId p = 0; p < c.processCount(); ++p) out.push_back({p, "x"});
  return out;
}

struct SymCase {
  const char* name;
  SymmetricPredicate (*build)(std::vector<SumTerm>);
};

// gtest would otherwise print the two pointers' bytes, which change with
// address-space layout and so make the registered test names differ per build.
void PrintTo(const SymCase& sc, std::ostream* os) { *os << sc.name; }

SymmetricPredicate buildXor(std::vector<SumTerm> v) {
  return exclusiveOr(std::move(v));
}
SymmetricPredicate buildNoMajority(std::vector<SumTerm> v) {
  return absenceOfSimpleMajority(std::move(v));
}
SymmetricPredicate buildNoTwoThirds(std::vector<SumTerm> v) {
  return absenceOfTwoThirdsMajority(std::move(v));
}
SymmetricPredicate buildNotAllEqual(std::vector<SumTerm> v) {
  return notAllEqual(std::move(v));
}
SymmetricPredicate buildExactlyTwo(std::vector<SumTerm> v) {
  return exactlyK(std::move(v), 2);
}

class SymmetricSweep : public ::testing::TestWithParam<SymCase> {};

TEST_P(SymmetricSweep, PossiblyMatchesLattice) {
  const SymCase& sc = GetParam();
  Rng rng(1234 + sc.name[0]);
  int hits = 0;
  for (int trial = 0; trial < 50; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 4;
    opt.eventsPerProcess = 3;
    opt.messageProbability = rng.real() * 0.7;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.2 + 0.3 * rng.real(), rng);
    const VectorClocks vc(c);
    const SymmetricPredicate pred = sc.build(allVars(c));
    const auto witness = possiblySymmetric(vc, trace, pred);
    const bool expected = lattice::possibly(vc, [&](const Cut& cut) {
      return pred.holdsAtCut(trace, cut);
    }).witness.has_value();
    ASSERT_EQ(witness.has_value(), expected)
        << sc.name << " trial " << trial;
    if (witness) {
      ++hits;
      EXPECT_TRUE(vc.isConsistent(*witness));
      EXPECT_TRUE(pred.holdsAtCut(trace, *witness));
    }
  }
  EXPECT_GT(hits, 0) << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, SymmetricSweep,
    ::testing::Values(SymCase{"xor", &buildXor},
                      SymCase{"noMajority", &buildNoMajority},
                      SymCase{"noTwoThirds", &buildNoTwoThirds},
                      SymCase{"notAllEqual", &buildNotAllEqual},
                      SymCase{"exactlyTwo", &buildExactlyTwo}),
    [](const ::testing::TestParamInfo<SymCase>& info) {
      return info.param.name;
    });

TEST(SymmetricDetectTest, DefinitelyMatchesLattice) {
  Rng rng(4321);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.4;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.5, rng);
    const VectorClocks vc(c);
    const SymmetricPredicate pred = notAllEqual(allVars(c));
    const bool got = definitelySymmetric(vc, trace, pred);
    const bool expected =
        lattice::definitely(vc, [&](const Cut& cut) {
          return pred.holdsAtCut(trace, cut);
        }).holds;
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(SymmetricDetectTest, UnsatisfiableCountSetNeverPossible) {
  ComputationBuilder b(3);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false, true});
  trace.defineBool(1, "x", {false});
  trace.defineBool(2, "x", {true});
  const VectorClocks vc(c);
  // Odd arity: absence of simple majority is unsatisfiable by definition.
  const auto pred = absenceOfSimpleMajority(allVars(c));
  EXPECT_TRUE(pred.trueCounts.empty());
  EXPECT_FALSE(possiblySymmetric(vc, trace, pred).has_value());
}

}  // namespace
}  // namespace gpd::detect
