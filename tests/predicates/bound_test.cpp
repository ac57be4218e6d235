// The bound evaluators (CnfPredicate::Bound, SumPredicate::Bound) against
// the by-name ones they replace in the lattice kernels: same value on every
// cut, and the same failure for a variable that is not defined.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "computation/random.h"
#include "predicates/cnf.h"
#include "predicates/relational.h"
#include "util/check.h"

namespace gpd {
namespace {

const char* const kBoolVars[] = {"a", "b"};
const char* const kIntVars[] = {"x", "y"};

// Booleans "a" and "b" and integers "x" and "y" on every process.
VariableTrace randomTrace(const Computation& c, Rng& rng) {
  VariableTrace trace(c);
  for (ProcessId p = 0; p < c.processCount(); ++p) {
    const auto events = static_cast<std::size_t>(c.eventCount(p));
    for (const char* var : kBoolVars) {
      std::vector<bool> values(events);
      for (std::size_t i = 0; i < events; ++i) values[i] = rng.chance(0.5);
      trace.defineBool(p, var, values);
    }
    for (const char* var : kIntVars) {
      std::vector<std::int64_t> values(events);
      for (std::size_t i = 0; i < events; ++i) values[i] = rng.uniform(-3, 3);
      trace.define(p, var, std::move(values));
    }
  }
  return trace;
}

// Any index vector will do: evaluation does not need consistency.
Cut randomCut(const Computation& c, Rng& rng) {
  std::vector<int> last(static_cast<std::size_t>(c.processCount()));
  for (ProcessId p = 0; p < c.processCount(); ++p) {
    last[p] = static_cast<int>(
        rng.index(static_cast<std::size_t>(c.eventCount(p))));
  }
  return Cut(std::move(last));
}

ProcessId randomProcess(const Computation& c, Rng& rng) {
  return static_cast<ProcessId>(
      rng.index(static_cast<std::size_t>(c.processCount())));
}

TEST(BoundPredicateTest, BoundCnfAgreesWithHoldsAtCut) {
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 1 + static_cast<int>(rng.index(6));
    opt.eventsPerProcess = 1 + static_cast<int>(rng.index(6));
    const Computation c = randomComputation(opt, rng);
    const VariableTrace trace = randomTrace(c, rng);
    CnfPredicate pred;
    const std::size_t clauses = 1 + rng.index(4);
    for (std::size_t j = 0; j < clauses; ++j) {
      CnfClause clause;
      const std::size_t literals = 1 + rng.index(3);
      for (std::size_t i = 0; i < literals; ++i) {
        clause.push_back(BoolLiteral{randomProcess(c, rng),
                                     kBoolVars[rng.index(2)],
                                     rng.chance(0.5)});
      }
      pred.clauses.push_back(std::move(clause));
    }
    const CnfPredicate::Bound bound = pred.bind(trace);
    for (int k = 0; k < 40; ++k) {
      const Cut cut = randomCut(c, rng);
      EXPECT_EQ(bound.holds(cut), pred.holdsAtCut(trace, cut))
          << pred.toString() << " at " << cut.toString();
    }
  }
}

TEST(BoundPredicateTest, BoundSumAgreesWithSumAtCut) {
  Rng rng(9191);
  const Relop relops[] = {Relop::Less,      Relop::LessEq, Relop::Greater,
                          Relop::GreaterEq, Relop::Equal,  Relop::NotEqual};
  for (int trial = 0; trial < 60; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 1 + static_cast<int>(rng.index(6));
    opt.eventsPerProcess = 1 + static_cast<int>(rng.index(6));
    const Computation c = randomComputation(opt, rng);
    const VariableTrace trace = randomTrace(c, rng);
    SumPredicate pred;
    const std::size_t terms = 1 + rng.index(4);
    for (std::size_t i = 0; i < terms; ++i) {
      pred.terms.push_back(
          SumTerm{randomProcess(c, rng), kIntVars[rng.index(2)]});
    }
    pred.relop = relops[rng.index(6)];
    pred.k = rng.uniform(-4, 4);
    const SumPredicate::Bound bound = pred.bind(trace);
    for (int k = 0; k < 40; ++k) {
      const Cut cut = randomCut(c, rng);
      EXPECT_EQ(bound.sum(cut), pred.sumAtCut(trace, cut))
          << pred.toString() << " at " << cut.toString();
      EXPECT_EQ(bound.holds(cut), pred.holdsAtCut(trace, cut))
          << pred.toString() << " at " << cut.toString();
    }
  }
}

// The by-name evaluator's exception message, or "" when it did not throw.
template <class Eval>
std::string failure(const Eval& eval) {
  try {
    eval();
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(BoundPredicateTest, UndefinedVariableFailsWhenEvaluatedAsByName) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "a", {false, true});
  trace.define(1, "x", {0, 5});
  const Cut low(std::vector<int>{0, 0});
  const Cut high(std::vector<int>{1, 1});

  // (a@p0 | nosuch@p1): binding succeeds; the literal fails only when a
  // cut reaches it, as holdsAtCut does.
  CnfPredicate cnf;
  cnf.clauses = {{{0, "a", true}, {1, "nosuch", true}}};
  const CnfPredicate::Bound cnfBound = cnf.bind(trace);
  EXPECT_TRUE(cnfBound.holds(high));
  const std::string byName = failure([&] { cnf.holdsAtCut(trace, low); });
  EXPECT_NE(byName, "");
  EXPECT_EQ(failure([&] { cnfBound.holds(low); }), byName);

  SumPredicate sum;
  sum.terms = {{1, "x"}, {0, "nosuch"}};
  const SumPredicate::Bound sumBound = sum.bind(trace);
  const std::string sumByName = failure([&] { sum.sumAtCut(trace, high); });
  EXPECT_NE(sumByName, "");
  EXPECT_EQ(failure([&] { sumBound.sum(high); }), sumByName);
}

TEST(BoundPredicateTest, ProcessOutsideTheTraceFailsToBind) {
  ComputationBuilder b(2);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "a", {false});
  CnfPredicate cnf;
  cnf.clauses = {{{0, "a", true}, {7, "a", true}}};
  EXPECT_THROW(cnf.bind(trace), CheckFailure);
  SumPredicate sum;
  sum.terms = {{-1, "a"}};
  EXPECT_THROW(sum.bind(trace), CheckFailure);
}

}  // namespace
}  // namespace gpd
