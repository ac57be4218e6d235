// Property sweep, wave two: the special-case and extension detectors, per
// seed, as individually-reported parameterized cases.
#include <gtest/gtest.h>

#include "gpd.h"

namespace gpd {
namespace {

class PropertySweep2 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep2, CpdscReceiveOrderedEquivalentToLattice) {
  Rng rng(GetParam() * 7919 + 1);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.6;
  opt.discipline = GetParam() % 2 ? OrderingDiscipline::ReceiveOrdered
                                  : OrderingDiscipline::SendOrdered;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.3, rng);
  CnfPredicate pred;
  for (int g = 0; g < 2; ++g) {
    pred.clauses.push_back(
        {{2 * g, "b", rng.chance(0.5)}, {2 * g + 1, "b", rng.chance(0.5)}});
  }
  const VectorClocks clocks(comp);
  const detect::CpdscResult res =
      detect::detectSingularSpecialCase(clocks, trace, pred);
  ASSERT_TRUE(res.applicable());
  EXPECT_EQ(res.found(), lattice::possibly(clocks, [&](const Cut& c) {
              return pred.holdsAtCut(trace, c);
            }).witness.has_value());
}

TEST_P(PropertySweep2, SymmetricDetectionEquivalentToLattice) {
  Rng rng(GetParam() * 104729 + 3);
  RandomComputationOptions opt;
  opt.processes = 4;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.5;
  const Computation comp = randomComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.35, rng);
  std::vector<SumTerm> vars;
  for (ProcessId p = 0; p < 4; ++p) vars.push_back({p, "b"});
  const VectorClocks clocks(comp);
  for (const SymmetricPredicate& pred :
       {exclusiveOr(vars), absenceOfSimpleMajority(vars), exactlyK(vars, 2)}) {
    const auto witness = detect::possiblySymmetric(clocks, trace, pred);
    EXPECT_EQ(witness.has_value(),
              lattice::possibly(clocks, [&](const Cut& c) {
                return pred.holdsAtCut(trace, c);
              }).witness.has_value())
        << pred.name;
  }
}

TEST_P(PropertySweep2, InequalityLoweringEquivalentToLattice) {
  Rng rng(GetParam() * 65537 + 5);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.4;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomCounters(trace, "v", 0, 2, rng);
  const Relop ops[] = {Relop::Less, Relop::LessEq, Relop::Greater,
                       Relop::GreaterEq, Relop::NotEqual};
  IneqClausePredicate pred;
  for (int g = 0; g < 2; ++g) {
    pred.clauses.push_back(
        {{2 * g, "v", ops[rng.index(5)], rng.uniform(-2, 2)},
         {2 * g + 1, "v", ops[rng.index(5)], rng.uniform(-2, 2)}});
  }
  const VectorClocks clocks(comp);
  const detect::IneqResult res =
      detect::possiblyInequality(clocks, trace, pred);
  EXPECT_EQ(res.cut.has_value(),
            lattice::possibly(clocks, [&](const Cut& c) {
              return pred.holdsAtCut(trace, c);
            }).witness.has_value());
}

TEST_P(PropertySweep2, SatEncodingEquivalentToChainCover) {
  Rng rng(GetParam() * 92821 + 7);
  GroupedComputationOptions opt;
  opt.groups = 3;
  opt.groupSize = 2;
  opt.eventsPerProcess = 4;
  opt.messageProbability = 0.5;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.25, rng);
  CnfPredicate pred;
  for (int g = 0; g < 3; ++g) {
    pred.clauses.push_back(
        {{2 * g, "b", rng.chance(0.5)}, {2 * g + 1, "b", rng.chance(0.5)}});
  }
  const VectorClocks clocks(comp);
  EXPECT_EQ(detect::detectSingularViaSat(clocks, trace, pred).cut.has_value(),
            detect::detectSingularByChainCover(clocks, trace, pred).found);
}

TEST_P(PropertySweep2, SliceMembershipEquivalentToPredicate) {
  Rng rng(GetParam() * 15485863 + 11);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.5;
  const Computation comp = randomComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.5, rng);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < 3; ++p) pred.terms.push_back(varTrue(p, "b"));
  const VectorClocks clocks(comp);
  const detect::Slice slice =
      detect::computeSlice(clocks, detect::conjunctiveOracle(trace, pred));
  lattice::explore(clocks, [&](const Cut& cut) {
    EXPECT_EQ(detect::sliceSatisfies(slice, clocks, cut),
              pred.holdsAtCut(trace, cut));
    return true;
  });
}

TEST_P(PropertySweep2, ControlSerializesOrReportsConflict) {
  Rng rng(GetParam() * 7 + 13);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 4;
  opt.messageProbability = 0.4;
  const Computation comp = randomComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "a", 0.35, rng);
  std::vector<std::vector<detect::TrueInterval>> intervals;
  for (ProcessId p = 0; p < 3; ++p) {
    intervals.push_back(detect::trueIntervals(trace, varTrue(p, "a")));
  }
  const VectorClocks clocks(comp);
  const control::SerializationResult res =
      control::serializeIntervals(clocks, intervals);
  if (!res.feasible) return;  // conflict paths covered in control tests
  const VariableTrace controlled = trace.rebindTo(*res.controlled);
  const VectorClocks controlledClocks(*res.controlled);
  for (ProcessId i = 0; i < 3; ++i) {
    for (ProcessId j = i + 1; j < 3; ++j) {
      ConjunctivePredicate both{{varTrue(i, "a"), varTrue(j, "a")}};
      EXPECT_FALSE(
          detect::detectConjunctive(controlledClocks, controlled, both).found);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep2,
                         ::testing::Range<std::uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gpd
