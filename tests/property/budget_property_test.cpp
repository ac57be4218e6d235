// Budgeted-detection properties (the anytime contract of DESIGN.md §8):
//
//   1. A budgeted run that completes within its budget is bit-identical to
//      the unbudgeted run — same outcome, same witness cut, and the same
//      lastAlgorithm() string (the budget must not change routing).
//   2. Under an arbitrarily tiny budget the answer is either the exact
//      answer or Unknown with a stop reason naming a limit that actually
//      tripped — never a wrong Yes/No.
//
// The unbudgeted overloads walk the same plan under an unlimited budget, so
// the verdicts are checked against an independent oracle: the exhaustive
// lattice search over the by-name predicate.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "computation/random.h"
#include "control/budget.h"
#include "detect/detector.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

control::Budget generousBudget() {
  control::BudgetLimits limits;
  limits.deadlineMillis = 60000;  // never trips in a unit test
  return control::Budget(limits);
}

// Asserts the three-valued Detection against a tripped-or-exact contract:
// Yes/No must match `truth`, Unknown must name a limit that actually fired
// and must stay within the configured limits.
void expectSoundUnderLimits(const Detection& d, bool truth,
                            const control::BudgetLimits& limits,
                            const std::string& label) {
  switch (d.outcome) {
    case Outcome::Yes:
      EXPECT_TRUE(truth) << label << ": budgeted Yes but ground truth is No";
      break;
    case Outcome::No:
      EXPECT_FALSE(truth) << label << ": budgeted No but ground truth is Yes";
      break;
    case Outcome::Unknown:
      EXPECT_NE(d.stopReason, control::StopReason::None)
          << label << ": Unknown without a tripped limit";
      break;
  }
  if (limits.maxCuts != 0) {
    EXPECT_LE(d.progress.cutsVisited, limits.maxCuts) << label;
    if (d.stopReason == control::StopReason::CutLimit) {
      EXPECT_EQ(d.progress.cutsVisited, limits.maxCuts) << label;
    }
  }
  if (limits.maxCombinations != 0) {
    EXPECT_LE(d.progress.combinationsTried, limits.maxCombinations) << label;
    if (d.stopReason == control::StopReason::CombinationLimit) {
      EXPECT_EQ(d.progress.combinationsTried, limits.maxCombinations) << label;
    }
  }
}

// One random grouped computation with boolean and counter variables — the
// same corpus shape the facade cross-check uses.
struct Corpus {
  Computation computation;
  VariableTrace trace;

  explicit Corpus(Rng& rng, int trial)
      : computation(make(rng, trial)), trace(computation) {
    defineRandomBools(trace, "x", 0.35, rng);
    defineRandomCounters(trace, "c1", 0, 1, rng);  // |Δ| ≤ 1: Theorem 7
    defineRandomCounters(trace, "c2", 0, 2, rng);  // |Δ| > 1: lattice only
  }

  static Computation make(Rng& rng, int trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    opt.discipline = trial % 3 == 0   ? OrderingDiscipline::None
                     : trial % 3 == 1 ? OrderingDiscipline::ReceiveOrdered
                                      : OrderingDiscipline::SendOrdered;
    return randomGroupedComputation(opt, rng);
  }
};

template <typename Pred>
bool holds(const Pred& pred, const VariableTrace& trace, const Cut& cut) {
  return pred.holdsAtCut(trace, cut);
}

bool holds(const BoolExpr& expr, const VariableTrace& trace, const Cut& cut) {
  return expr.evaluate(trace, cut);
}

// Ground truth from the exhaustive lattice over the by-name predicate.
template <typename Pred>
bool possiblyTruth(const Detector& det, const VariableTrace& trace,
                   const Pred& pred) {
  return lattice::possibly(det.clocks(), [&](const Cut& cut) {
           return holds(pred, trace, cut);
         }).witness.has_value();
}

template <typename Pred>
bool definitelyTruth(const Detector& det, const VariableTrace& trace,
                     const Pred& pred) {
  return lattice::definitely(det.clocks(), [&](const Cut& cut) {
           return holds(pred, trace, cut);
         }).holds;
}

template <typename Pred>
void expectPossiblyBitIdentical(Detector& det, const VariableTrace& trace,
                                const Pred& pred, const std::string& label) {
  const bool truth = possiblyTruth(det, trace, pred);
  const std::optional<Cut> exact = det.possibly(pred);
  const std::string algorithm = det.lastAlgorithm();
  EXPECT_EQ(exact.has_value(), truth) << label << ": unbudgeted";
  control::Budget budget = generousBudget();
  const Detection d = det.possibly(pred, budget);
  ASSERT_NE(d.outcome, Outcome::Unknown) << label << ": generous budget";
  EXPECT_EQ(d.outcome == Outcome::Yes, truth) << label;
  EXPECT_EQ(d.algorithm, algorithm) << label;
  EXPECT_TRUE(d.skippedSteps.empty()) << label;
  if (exact.has_value()) {
    ASSERT_TRUE(d.witness.has_value()) << label;
    EXPECT_EQ(d.witness->last, exact->last) << label;
    EXPECT_TRUE(holds(pred, trace, *d.witness)) << label;
  } else {
    EXPECT_FALSE(d.witness.has_value()) << label;
  }
}

template <typename Pred>
void expectDefinitelyBitIdentical(Detector& det, const VariableTrace& trace,
                                  const Pred& pred, const std::string& label) {
  const bool truth = definitelyTruth(det, trace, pred);
  EXPECT_EQ(det.definitely(pred), truth) << label << ": unbudgeted";
  const std::string algorithm = det.lastAlgorithm();
  control::Budget budget = generousBudget();
  const Detection d = det.definitely(pred, budget);
  ASSERT_NE(d.outcome, Outcome::Unknown) << label << ": generous budget";
  EXPECT_EQ(d.outcome == Outcome::Yes, truth) << label;
  EXPECT_EQ(d.algorithm, algorithm) << label;
  EXPECT_TRUE(d.skippedSteps.empty()) << label;
}

ConjunctivePredicate allTrue(int processes) {
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < processes; ++p) {
    pred.terms.push_back(varTrue(p, "x"));
  }
  return pred;
}

CnfPredicate singularCnf(Rng& rng) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                  {{2, "x", rng.chance(0.5)}, {3, "x", true}}};
  return pred;
}

CnfPredicate nonSingularCnf(Rng& rng) {
  CnfPredicate pred = singularCnf(rng);
  pred.clauses.push_back({{0, "x", false}});  // process 0 twice: non-singular
  return pred;
}

BoolExprPtr mixedExpr() {
  // (x0 ∧ x1) ∨ (¬x2 ∧ x3): two DNF terms, one with a negative literal.
  return BoolExpr::disjunction(
      {BoolExpr::conjunction({BoolExpr::var(0, "x"), BoolExpr::var(1, "x")}),
       BoolExpr::conjunction(
           {BoolExpr::negate(BoolExpr::var(2, "x")), BoolExpr::var(3, "x")})});
}

SumPredicate sumPred(const std::string& var, Relop op, std::int64_t k) {
  SumPredicate pred;
  for (ProcessId p = 0; p < 4; ++p) pred.terms.push_back({p, var});
  pred.relop = op;
  pred.k = k;
  return pred;
}

TEST(BudgetPropertyTest, GenerousBudgetIsBitIdenticalToUnbudgeted) {
  Rng rng(271828);
  for (int trial = 0; trial < 25; ++trial) {
    Corpus corpus(rng, trial);
    Detector det(corpus.trace);
    const std::string t = "trial " + std::to_string(trial);

    expectPossiblyBitIdentical(det, corpus.trace, allTrue(4), t + " conj");
    expectPossiblyBitIdentical(det, corpus.trace, singularCnf(rng),
                               t + " singular-cnf");
    expectPossiblyBitIdentical(det, corpus.trace, nonSingularCnf(rng),
                               t + " non-singular-cnf");
    expectPossiblyBitIdentical(det, corpus.trace,
                               sumPred("c1", Relop::GreaterEq, 1),
                               t + " sum-ge");
    expectPossiblyBitIdentical(det, corpus.trace,
                               sumPred("c1", Relop::Equal, 1), t + " sum-eq");
    expectPossiblyBitIdentical(det, corpus.trace,
                               sumPred("c2", Relop::Equal, 2),
                               t + " sum-eq-wide");
    std::vector<SumTerm> vars;
    for (ProcessId p = 0; p < 4; ++p) vars.push_back({p, "x"});
    expectPossiblyBitIdentical(det, corpus.trace, notAllEqual(vars),
                               t + " symmetric");

    expectPossiblyBitIdentical(det, corpus.trace, *mixedExpr(), t + " expr");

    expectDefinitelyBitIdentical(det, corpus.trace, allTrue(4),
                                 t + " def-conj");
    expectDefinitelyBitIdentical(det, corpus.trace, singularCnf(rng),
                                 t + " def-cnf");
    expectDefinitelyBitIdentical(det, corpus.trace,
                                 sumPred("c1", Relop::GreaterEq, 1),
                                 t + " def-sum-ge");
    expectDefinitelyBitIdentical(det, corpus.trace,
                                 sumPred("c1", Relop::Equal, 1),
                                 t + " def-sum-eq");
    expectDefinitelyBitIdentical(det, corpus.trace, notAllEqual(vars),
                                 t + " def-sym");
  }
}

TEST(BudgetPropertyTest, TinyBudgetsAreExactOrHonestlyUnknown) {
  Rng rng(314159);
  int unknowns = 0;
  int exacts = 0;
  for (int trial = 0; trial < 15; ++trial) {
    Corpus corpus(rng, trial);
    Detector det(corpus.trace);
    const std::string t = "trial " + std::to_string(trial);

    const CnfPredicate singular = singularCnf(rng);
    const CnfPredicate nonSingular = nonSingularCnf(rng);
    const SumPredicate wide = sumPred("c2", Relop::Equal, 2);

    const bool singularTruth = possiblyTruth(det, corpus.trace, singular);
    const bool nonSingularTruth =
        possiblyTruth(det, corpus.trace, nonSingular);
    const bool wideTruth = possiblyTruth(det, corpus.trace, wide);
    const bool defTruth = definitelyTruth(det, corpus.trace, nonSingular);

    for (const std::uint64_t cap : {1, 2, 4, 16}) {
      for (const bool capCuts : {false, true}) {
        control::BudgetLimits limits;
        (capCuts ? limits.maxCuts : limits.maxCombinations) = cap;
        const std::string label =
            t + (capCuts ? " cuts=" : " combos=") + std::to_string(cap);

        for (const CnfPredicate* pred : {&singular, &nonSingular}) {
          control::Budget budget(limits);
          const Detection d = det.possibly(*pred, budget);
          const bool truth =
              pred == &singular ? singularTruth : nonSingularTruth;
          expectSoundUnderLimits(d, truth, limits, label + " cnf");
          if (d.outcome == Outcome::Yes) {
            ASSERT_TRUE(d.witness.has_value()) << label;
            EXPECT_TRUE(pred->holdsAtCut(corpus.trace, *d.witness)) << label;
          }
          (d.outcome == Outcome::Unknown ? unknowns : exacts) += 1;
        }

        control::Budget wideBudget(limits);
        expectSoundUnderLimits(det.possibly(wide, wideBudget), wideTruth,
                               limits, label + " sum-eq-wide");

        control::Budget defBudget(limits);
        expectSoundUnderLimits(det.definitely(nonSingular, defBudget),
                               defTruth, limits, label + " def-cnf");
      }
    }
  }
  // The sweep must actually exercise both regimes.
  EXPECT_GT(unknowns, 0);
  EXPECT_GT(exacts, 0);
}

}  // namespace
}  // namespace gpd::detect
