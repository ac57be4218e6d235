#include "detect/singular_cnf.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect_test_util.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

using testing::latticePossiblyCnf;
using testing::randomSingularKCnf;

TEST(SingularCnfTest, RejectsNonSingular) {
  ComputationBuilder b(2);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {true});
  trace.defineBool(1, "x", {true});
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}}, {{0, "x", false}, {1, "x", true}}};
  const VectorClocks vc(c);
  EXPECT_THROW(detectSingularByProcessEnumeration(vc, trace, pred),
               CheckFailure);
  EXPECT_THROW(detectSingularByChainCover(vc, trace, pred), CheckFailure);
}

TEST(SingularCnfTest, ClauseTrueEventsMergesLiterals) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false, true});
  trace.defineBool(1, "y", {true, false});
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "y", true}}};
  const auto events = clauseTrueEvents(trace, pred);
  ASSERT_EQ(events.size(), 1u);
  // (0,1) makes x true; (1,0) makes y true.
  EXPECT_EQ(events[0], (std::vector<EventId>{{0, 1}, {1, 0}}));
}

TEST(SingularCnfTest, UnsatisfiableClauseShortCircuits) {
  ComputationBuilder b(2);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false});
  trace.defineBool(1, "x", {false});
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}}};
  const VectorClocks vc(c);
  const auto res = detectSingularByProcessEnumeration(vc, trace, pred);
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.combinationsTotal, 0u);
}

struct CaseParams {
  int groups;
  int groupSize;
  int events;
  // Occupies what would otherwise be padding. gtest names each case after the
  // raw bytes of its parameter, so every byte must be initialised for the
  // test names to be the same from one build to the next.
  int unused;
  double msgProb;
  double density;
};

class SingularSweep : public ::testing::TestWithParam<CaseParams> {};

TEST_P(SingularSweep, BothAlgorithmsMatchLattice) {
  const CaseParams& params = GetParam();
  Rng rng(777 + params.groups * 131 + params.groupSize * 17 + params.events);
  int found = 0;
  for (int trial = 0; trial < 40; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = params.groups;
    opt.groupSize = params.groupSize;
    opt.eventsPerProcess = params.events;
    opt.messageProbability = params.msgProb;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", params.density, rng);
    const CnfPredicate pred =
        randomSingularKCnf(params.groups, params.groupSize, "x", rng);
    const VectorClocks vc(c);

    const bool expected = latticePossiblyCnf(vc, trace, pred);
    const auto byProcess = detectSingularByProcessEnumeration(vc, trace, pred);
    const auto byChains = detectSingularByChainCover(vc, trace, pred);
    ASSERT_EQ(byProcess.found, expected)
        << "process enumeration, trial " << trial;
    ASSERT_EQ(byChains.found, expected) << "chain cover, trial " << trial;
    if (expected) {
      ++found;
      for (const auto& res : {byProcess, byChains}) {
        ASSERT_TRUE(res.cut.has_value());
        EXPECT_TRUE(vc.isConsistent(*res.cut));
        EXPECT_TRUE(pred.holdsAtCut(trace, *res.cut));
      }
    }
  }
  EXPECT_GT(found, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SingularSweep,
    ::testing::Values(CaseParams{2, 2, 3, 0, 0.4, 0.35},
                      CaseParams{2, 2, 4, 0, 0.7, 0.25},
                      CaseParams{3, 2, 3, 0, 0.3, 0.3},
                      CaseParams{2, 3, 3, 0, 0.5, 0.2},
                      CaseParams{1, 4, 4, 0, 0.6, 0.3},
                      CaseParams{3, 1, 4, 0, 0.5, 0.5}));

TEST(SingularCnfTest, ChainCoverIsValidPartition) {
  Rng rng(909);
  for (int trial = 0; trial < 25; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 3;
    opt.eventsPerProcess = 5;
    opt.messageProbability = 0.6;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.4, rng);
    const CnfPredicate pred = randomSingularKCnf(2, 3, "x", rng);
    const VectorClocks vc(c);
    const auto covers = clauseChainCovers(vc, trace, pred);
    const auto trueEvents = clauseTrueEvents(trace, pred);
    ASSERT_EQ(covers.size(), trueEvents.size());
    for (std::size_t j = 0; j < covers.size(); ++j) {
      std::size_t covered = 0;
      for (const Chain& chain : covers[j]) {
        covered += chain.events.size();
        for (std::size_t i = 0; i + 1 < chain.events.size(); ++i) {
          EXPECT_TRUE(vc.leq(chain.events[i], chain.events[i + 1]));
        }
      }
      EXPECT_EQ(covered, trueEvents[j].size());
      // A minimum chain cover never needs more chains than the group has
      // processes (per-process queues are already a chain cover).
      EXPECT_LE(covers[j].size(), 3u);
    }
  }
}

TEST(SingularCnfTest, HugeEnumerationSpaceSaturatesInsteadOfWrapping) {
  // 65 two-process groups with one concurrent true event per process: the
  // space is 2^65, which wraps a uint64 to zero. A wrap used to read as
  // "some clause never true" and fabricate an instant exact No on a trace
  // whose very first selection is a witness.
  const int kGroups = 65;
  ComputationBuilder builder(2 * kGroups);
  for (ProcessId p = 0; p < 2 * kGroups; ++p) builder.appendEvent(p);
  const Computation c = std::move(builder).build();
  VariableTrace trace(c);
  for (ProcessId p = 0; p < c.processCount(); ++p) {
    trace.defineBool(p, "x", {false, true});
  }
  CnfPredicate pred;
  for (int g = 0; g < kGroups; ++g) {
    pred.clauses.push_back({{2 * g, "x", true}, {2 * g + 1, "x", true}});
  }
  ASSERT_TRUE(pred.isSingular());
  const VectorClocks vc(c);
  for (auto detect : {&detectSingularByChainCover,
                      &detectSingularByProcessEnumeration}) {
    const auto res = (*detect)(vc, trace, pred, nullptr, nullptr, nullptr);
    EXPECT_EQ(res.combinationsTotal, UINT64_MAX);  // saturated, not 0
    EXPECT_TRUE(res.found);  // everything concurrent: first selection wins
    EXPECT_GE(res.combinationsTried, 1u);
    EXPECT_TRUE(res.complete || res.found);
  }
}

TEST(SingularCnfTest, ChainCoverNeverEnumeratesMoreThanProcesses) {
  Rng rng(1111);
  for (int trial = 0; trial < 20; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 3;
    opt.groupSize = 2;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.7;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.5, rng);
    const CnfPredicate pred = randomSingularKCnf(3, 2, "x", rng);
    const VectorClocks vc(c);
    const auto byProcess = detectSingularByProcessEnumeration(vc, trace, pred);
    const auto byChains = detectSingularByChainCover(vc, trace, pred);
    EXPECT_LE(byChains.combinationsTotal, byProcess.combinationsTotal);
  }
}

}  // namespace
}  // namespace gpd::detect
