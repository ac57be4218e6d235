// Planner and classifier tests. The load-bearing property: for singular CNF
// predicates the plan's predicted CPDHB-invocation counts equal, exactly,
// the combinationsTotal the Sec. 3.3 detectors later report — the planner
// is a cost oracle, not an estimate. Plus: routing agreement between
// Detector and the lattice ground truth, Sec. 3.2 precondition agreement
// with detect::isReceiveOrdered/isSendOrdered, and hint correctness.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "../detect/detect_test_util.h"
#include "gpd.h"

namespace gpd {
namespace {

using analyze::Algorithm;
using analyze::AnalysisReport;
using analyze::Hint;
using analyze::Modality;
using analyze::PlanStep;

const PlanStep* findStep(const AnalysisReport& report, Algorithm a) {
  for (const PlanStep& s : report.steps) {
    if (s.algorithm == a) return &s;
  }
  return nullptr;
}

struct Scenario {
  Computation comp;
  VariableTrace trace;
  VectorClocks clocks;

  Scenario(Computation c, const std::function<void(VariableTrace&)>& vars)
      : comp(std::move(c)), trace(comp), clocks(comp) {
    vars(trace);
  }
};

Scenario randomBoolScenario(int processes, int eventsPerProcess, Rng& rng,
                            double density = 0.4) {
  RandomComputationOptions opt;
  opt.processes = processes;
  opt.eventsPerProcess = eventsPerProcess;
  return Scenario(randomComputation(opt, rng), [&](VariableTrace& t) {
    defineRandomBools(t, "b", density, rng);
  });
}

TEST(Plan, AlgorithmNamesMatchDetectorHistory) {
  EXPECT_STREQ(toString(Algorithm::Cpdhb), "cpdhb");
  EXPECT_STREQ(toString(Algorithm::CpdscSpecialCase), "cpdsc-special-case");
  EXPECT_STREQ(toString(Algorithm::SingularChainCover),
               "singular-chain-cover");
  EXPECT_STREQ(toString(Algorithm::SingularProcessEnumeration),
               "singular-process-enumeration");
  EXPECT_STREQ(toString(Algorithm::LatticeEnumeration),
               "lattice-enumeration");
  EXPECT_STREQ(toString(Algorithm::MinCutExtrema), "min-cut-extrema");
  EXPECT_STREQ(toString(Algorithm::Theorem7ExactSum), "theorem-7-exact-sum");
  EXPECT_STREQ(toString(Algorithm::SymmetricExactSumDisjunction),
               "symmetric-exact-sum-disjunction");
  EXPECT_STREQ(toString(Algorithm::DnfDecomposition), "dnf-decomposition");
  EXPECT_STREQ(toString(Algorithm::IntervalDefinitely),
               "interval-definitely");
  EXPECT_STREQ(toString(Algorithm::LatticeDefinitely), "lattice-definitely");
  EXPECT_STREQ(toString(Algorithm::Theorem7Definitely),
               "theorem-7-definitely");
}

TEST(Plan, ConjunctiveRoutesToCpdhbWithOneInvocation) {
  Rng rng(31);
  Scenario s = randomBoolScenario(3, 4, rng);
  const ConjunctivePredicate pred{
      {varTrue(0, "b"), varTrue(1, "b"), varTrue(2, "b")}};

  const AnalysisReport possibly =
      analyze::planConjunctive(s.clocks, s.trace, pred, Modality::Possibly);
  EXPECT_EQ(possibly.chosen().algorithm, Algorithm::Cpdhb);
  EXPECT_EQ(possibly.chosen().predictedCpdhbInvocations, 1U);

  const AnalysisReport definitely =
      analyze::planConjunctive(s.clocks, s.trace, pred, Modality::Definitely);
  EXPECT_EQ(definitely.chosen().algorithm, Algorithm::IntervalDefinitely);
}

TEST(Plan, NonSingularCnfWithSkeletonChoosesSliceFirst) {
  Rng rng(32);
  Scenario s = randomBoolScenario(2, 3, rng);
  // Both clauses host process 0 — not singular; the second clause is
  // single-process, so a regular skeleton exists and slice-first leads the
  // plan, with the unsliced lattice ranked below it.
  CnfPredicate pred;
  pred.clauses.push_back({{0, "b", true}, {1, "b", true}});
  pred.clauses.push_back({{0, "b", false}});
  ASSERT_FALSE(pred.isSingular());

  const AnalysisReport report =
      analyze::planCnf(s.clocks, s.trace, pred, Modality::Possibly);
  EXPECT_EQ(report.chosen().algorithm, Algorithm::SliceFirst);
  EXPECT_TRUE(report.chosen().predictedSublatticeCuts.has_value());
  EXPECT_NE(findStep(report, Algorithm::LatticeEnumeration), nullptr);
  ASSERT_TRUE(report.cnf.has_value());
  EXPECT_FALSE(report.cnf->singular);
  EXPECT_EQ(report.cnf->singleProcessClauses, 1);
  EXPECT_EQ(findStep(report, Algorithm::SingularChainCover), nullptr);
}

TEST(Plan, NonSingularCnfWithoutSkeletonFallsBackToLatticeEnumeration) {
  Rng rng(32);
  Scenario s = randomBoolScenario(2, 3, rng);
  // No single-process clause: slice-first is inapplicable and the plain
  // lattice enumeration is chosen.
  CnfPredicate pred;
  pred.clauses.push_back({{0, "b", true}, {1, "b", true}});
  pred.clauses.push_back({{0, "b", false}, {1, "b", false}});
  ASSERT_FALSE(pred.isSingular());

  const AnalysisReport report =
      analyze::planCnf(s.clocks, s.trace, pred, Modality::Possibly);
  EXPECT_EQ(report.chosen().algorithm, Algorithm::LatticeEnumeration);
  ASSERT_TRUE(report.cnf.has_value());
  EXPECT_EQ(report.cnf->singleProcessClauses, 0);
  const PlanStep* sliceStep = findStep(report, Algorithm::SliceFirst);
  ASSERT_NE(sliceStep, nullptr);
  EXPECT_FALSE(sliceStep->applicable);
}

// The acceptance criterion: `plan` predicts the exact combinationsTotal the
// Sec. 3.3 detectors report, for both enumeration orders, over random
// computations of every ordering discipline.
TEST(Plan, PredictsExactCombinationsTotalForSingularCnf) {
  Rng rng(33);
  const OrderingDiscipline disciplines[] = {OrderingDiscipline::None,
                                            OrderingDiscipline::ReceiveOrdered,
                                            OrderingDiscipline::SendOrdered};
  int chainCoverChosen = 0;
  for (int iter = 0; iter < 60; ++iter) {
    GroupedComputationOptions opt;
    opt.groups = 2 + static_cast<int>(rng.index(2));
    opt.groupSize = 2;
    opt.eventsPerProcess = 3;
    opt.discipline = disciplines[rng.index(3)];
    Scenario s(randomGroupedComputation(opt, rng), [&](VariableTrace& t) {
      defineRandomBools(t, "b", 0.5, rng);
    });
    const CnfPredicate pred = detect::testing::randomSingularKCnf(
        opt.groups, opt.groupSize, "b", rng);

    const AnalysisReport report =
        analyze::planCnf(s.clocks, s.trace, pred, Modality::Possibly);

    const PlanStep* chain = findStep(report, Algorithm::SingularChainCover);
    const PlanStep* proc =
        findStep(report, Algorithm::SingularProcessEnumeration);
    ASSERT_NE(chain, nullptr);
    ASSERT_NE(proc, nullptr);
    ASSERT_TRUE(chain->predictedCpdhbInvocations.has_value());
    ASSERT_TRUE(proc->predictedCpdhbInvocations.has_value());

    const auto byChain =
        detect::detectSingularByChainCover(s.clocks, s.trace, pred);
    const auto byProc =
        detect::detectSingularByProcessEnumeration(s.clocks, s.trace, pred);
    EXPECT_EQ(*chain->predictedCpdhbInvocations, byChain.combinationsTotal)
        << "iter " << iter;
    EXPECT_EQ(*proc->predictedCpdhbInvocations, byProc.combinationsTotal)
        << "iter " << iter;
    // Dilworth: a chain cover never needs more chains than the per-process
    // partition, so the chain-cover step always ranks at or below.
    EXPECT_LE(*chain->predictedCpdhbInvocations,
              *proc->predictedCpdhbInvocations);

    // Sec. 3.2 preconditions agree with the detection layer, and so does the
    // special-case step's applicability.
    const detect::Groups groups = detect::groupsOfSingularCnf(pred);
    ASSERT_TRUE(report.cnf.has_value());
    EXPECT_EQ(report.cnf->receiveOrdered,
              detect::isReceiveOrdered(s.clocks, groups));
    EXPECT_EQ(report.cnf->sendOrdered,
              detect::isSendOrdered(s.clocks, groups));
    const PlanStep* special = findStep(report, Algorithm::CpdscSpecialCase);
    ASSERT_NE(special, nullptr);
    EXPECT_EQ(special->applicable,
              report.cnf->receiveOrdered || report.cnf->sendOrdered);
    if (special->applicable) {
      EXPECT_TRUE(detect::detectSingularSpecialCase(s.clocks, s.trace, pred)
                      .applicable());
      EXPECT_EQ(report.chosen().algorithm, Algorithm::CpdscSpecialCase);
    } else {
      EXPECT_EQ(report.chosen().algorithm, Algorithm::SingularChainCover);
      ++chainCoverChosen;
    }

    // End to end: the Detector executes the chosen step and agrees with the
    // lattice ground truth.
    detect::Detector detector(s.trace);
    const std::optional<Cut> cut = detector.possibly(pred);
    EXPECT_EQ(detector.lastAlgorithm(),
              toString(report.chosen().algorithm));
    EXPECT_EQ(cut.has_value(),
              detect::testing::latticePossiblyCnf(detector.clocks(), s.trace,
                                                  pred));
    if (cut) {
      EXPECT_TRUE(pred.holdsAtCut(s.trace, *cut));
    }
  }
  // The sweep must actually exercise the chain-cover path.
  EXPECT_GT(chainCoverChosen, 0);
}

TEST(Plan, SumRoutingFollowsTheoremPreconditions) {
  Rng rng(34);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 3;
  Scenario bools(randomComputation(opt, rng), [&](VariableTrace& t) {
    defineRandomBools(t, "x", 0.5, rng);
  });
  Scenario jumps(randomComputation(opt, rng), [&](VariableTrace& t) {
    defineRandomCounters(t, "c", 0, 2, rng);
  });

  const SumPredicate inequality{
      {{0, "x"}, {1, "x"}, {2, "x"}}, Relop::GreaterEq, 2};
  const AnalysisReport ineqReport =
      analyze::planSum(bools.clocks, bools.trace, inequality,
                       Modality::Possibly);
  EXPECT_EQ(ineqReport.chosen().algorithm, Algorithm::MinCutExtrema);

  const SumPredicate smallDelta{
      {{0, "x"}, {1, "x"}, {2, "x"}}, Relop::Equal, 2};
  ASSERT_LE(smallDelta.eventDeltaBound(bools.trace), 1);
  EXPECT_EQ(analyze::planSum(bools.clocks, bools.trace, smallDelta,
                             Modality::Possibly)
                .chosen()
                .algorithm,
            Algorithm::Theorem7ExactSum);
  EXPECT_EQ(analyze::planSum(bools.clocks, bools.trace, smallDelta,
                             Modality::Definitely)
                .chosen()
                .algorithm,
            Algorithm::Theorem7Definitely);

  const SumPredicate bigDelta{{{0, "c"}, {1, "c"}, {2, "c"}}, Relop::Equal, 1};
  if (bigDelta.eventDeltaBound(jumps.trace) > 1) {
    const AnalysisReport big = analyze::planSum(
        jumps.clocks, jumps.trace, bigDelta, Modality::Possibly);
    EXPECT_EQ(big.chosen().algorithm, Algorithm::LatticeEnumeration);
    const PlanStep* thm7 = findStep(big, Algorithm::Theorem7ExactSum);
    ASSERT_NE(thm7, nullptr);
    EXPECT_FALSE(thm7->applicable);
  }
}

// definitely(Σ = K) with |ΔS| > 1 used to trip an internal check; it must
// now route to the exhaustive lattice algorithm and agree with ground truth.
TEST(Plan, DefinitelyExactSumWithLargeDeltaUsesLattice) {
  Rng rng(35);
  for (int iter = 0; iter < 10; ++iter) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(2));
    opt.eventsPerProcess = 3;
    Scenario s(randomComputation(opt, rng), [&](VariableTrace& t) {
      defineRandomCounters(t, "c", 0, 2, rng);
    });
    SumPredicate pred;
    for (int p = 0; p < opt.processes; ++p) pred.terms.push_back({p, "c"});
    pred.relop = Relop::Equal;
    pred.k = 2;
    if (pred.eventDeltaBound(s.trace) <= 1) continue;

    const AnalysisReport report = analyze::planSum(
        s.clocks, s.trace, pred, Modality::Definitely);
    EXPECT_EQ(report.chosen().algorithm, Algorithm::LatticeDefinitely);

    detect::Detector detector(s.trace);
    const bool got = detector.definitely(pred);
    EXPECT_EQ(detector.lastAlgorithm(), "lattice-definitely");
    const bool truth = lattice::definitely(
        detector.clocks(),
        [&](const Cut& cut) { return pred.holdsAtCut(s.trace, cut); }).holds;
    EXPECT_EQ(got, truth) << "iter " << iter;
  }
}

TEST(Plan, SymmetricAndExpressionPlans) {
  Rng rng(36);
  Scenario s = randomBoolScenario(2, 3, rng);

  const SymmetricPredicate sym =
      exclusiveOr({{0, "b"}, {1, "b"}});
  const AnalysisReport symReport =
      analyze::planSymmetric(s.clocks, s.trace, sym, Modality::Possibly);
  EXPECT_EQ(symReport.chosen().algorithm,
            Algorithm::SymmetricExactSumDisjunction);

  const BoolExprPtr expr = BoolExpr::disjunction(
      {BoolExpr::conjunction({BoolExpr::var(0, "b"), BoolExpr::var(1, "b")}),
       BoolExpr::negate(BoolExpr::var(0, "b"))});
  const AnalysisReport exprReport =
      analyze::planExpression(s.clocks, s.trace, *expr, Modality::Possibly);
  EXPECT_EQ(exprReport.chosen().algorithm, Algorithm::DnfDecomposition);
  ASSERT_TRUE(exprReport.chosen().predictedCpdhbInvocations.has_value());
  EXPECT_EQ(*exprReport.chosen().predictedCpdhbInvocations,
            toDnf(*expr).size());
}

TEST(Classify, StabilityAndLinearityHints) {
  // One process, two non-initial events; x rises monotonically → stable,
  // and conjunctive predicates are linear by construction.
  ComputationBuilder rise(1);
  rise.appendEvent(0);
  rise.appendEvent(0);
  Scenario monotone(std::move(rise).build(), [](VariableTrace& t) {
    t.define(0, "x", {0, 1, 1});
  });
  CnfPredicate pred;
  pred.clauses.push_back({{0, "x", true}});
  const auto stableClass =
      analyze::classifyCnf(monotone.clocks, monotone.trace, pred);
  EXPECT_TRUE(stableClass.conjunctive);
  EXPECT_EQ(stableClass.stable, Hint::Yes);
  EXPECT_EQ(stableClass.linear, Hint::Yes);

  ComputationBuilder dip(1);
  dip.appendEvent(0);
  dip.appendEvent(0);
  Scenario pulse(std::move(dip).build(), [](VariableTrace& t) {
    t.define(0, "x", {0, 1, 0});
  });
  const auto pulseClass =
      analyze::classifyCnf(pulse.clocks, pulse.trace, pred);
  EXPECT_EQ(pulseClass.stable, Hint::No);

  // With the lattice budget zeroed (the Detector's routing configuration)
  // the hints stay Unknown.
  analyze::ClassifyOptions noBudget;
  noBudget.latticeCutLimit = 0;
  const auto capped =
      analyze::classifyCnf(pulse.clocks, pulse.trace, pred, noBudget);
  EXPECT_EQ(capped.stable, Hint::Unknown);
}

TEST(Plan, RenderersIncludeChosenStepAndBounds) {
  Rng rng(37);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 3;
  Scenario s(randomGroupedComputation(opt, rng), [&](VariableTrace& t) {
    defineRandomBools(t, "b", 0.5, rng);
  });
  const CnfPredicate pred =
      detect::testing::randomSingularKCnf(2, 2, "b", rng);
  const AnalysisReport report =
      analyze::planCnf(s.clocks, s.trace, pred, Modality::Possibly);

  std::ostringstream text;
  analyze::renderPlanText(text, report);
  EXPECT_NE(text.str().find("[chosen]"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find(toString(report.chosen().algorithm)),
            std::string::npos);

  std::ostringstream json;
  analyze::renderPlanJson(json, report);
  EXPECT_NE(json.str().find("\"chosen\": true"), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"algorithm\""), std::string::npos);
}

}  // namespace
}  // namespace gpd
