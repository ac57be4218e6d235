// The gpd::par determinism contract (DESIGN.md §10), property-tested: for
// any thread count a parallel kernel is bit-identical to its sequential
// form — same verdict, same witness (lowest combination / frontier index,
// never the first finisher), same combinationsTotal, same complete flag —
// across 200 random computations and thread counts {1, 2, 8}, including
// budget-exhausted Unknown cases under count budgets. The progress
// counters match too: on a Yes short-circuit a parallel scan reports the
// sequential prefix and gives its over-claimed charges back to the budget,
// so the serialized result (a canonical checkpoint string including
// progress) must match byte for byte.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "computation/random.h"
#include "control/budget.h"
#include "detect/detector.h"
#include "detect/singular_cnf.h"
#include "lattice/explore.h"
#include "par/pool.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

constexpr int kTrials = 200;

// One pool per contract thread count, shared across all trials (the pool is
// reusable; spawning 8 threads per trial would dominate the suite's time).
struct PoolSet {
  par::Pool pool1{1};
  par::Pool pool2{2};
  par::Pool pool8{8};
  par::Pool* all[3] = {&pool1, &pool2, &pool8};
};

// Small random grouped computations — the same corpus shape the budget
// property suite sweeps, kept small so 200 × |threads| detections stay fast.
struct Corpus {
  Computation computation;
  VariableTrace trace;

  explicit Corpus(Rng& rng, int trial)
      : computation(make(rng, trial)), trace(computation) {
    defineRandomBools(trace, "x", 0.35, rng);
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

CnfPredicate singularCnf(Rng& rng) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                  {{2, "x", rng.chance(0.5)}, {3, "x", true}}};
  return pred;
}

ConjunctivePredicate allTrue(int processes) {
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < processes; ++p) {
    pred.terms.push_back(varTrue(p, "x"));
  }
  return pred;
}

SumPredicate wideSum() {
  SumPredicate pred;
  for (ProcessId p = 0; p < 4; ++p) pred.terms.push_back({p, "c2"});
  pred.relop = Relop::Equal;
  pred.k = 2;
  return pred;
}

// Canonical checkpoint string of a Detection — every field a caller could
// persist, excluding per-step wall times (timing) and, unless asked,
// progress (which the contract lets differ on a Yes short-circuit).
std::string checkpoint(const Detection& d, bool includeProgress) {
  std::ostringstream os;
  os << toString(d.outcome) << '|' << d.algorithm << '|'
     << control::toString(d.stopReason) << '|';
  if (d.witness.has_value()) {
    for (int last : d.witness->last) os << last << ',';
  } else {
    os << "-";
  }
  os << '|';
  for (const std::string& s : d.skippedSteps) os << s << ';';
  os << '|';
  for (const StepTrace& st : d.steps) {
    os << st.algorithm << ':' << toString(st.status) << ':' << st.complete
       << ';';
  }
  if (includeProgress) {
    os << '|' << d.progress.cutsVisited << ':' << d.progress.combinationsTried;
  }
  return os.str();
}

// The singular-CNF kernel, sequential vs parallel: verdict, witness events,
// combinationsTotal, and complete flag must be identical; on a budget stop
// without a hit the tried count must match too (both scan exactly the
// budgeted prefix).
void expectKernelIdentical(const SingularCnfResult& seq,
                           const SingularCnfResult& par,
                           const std::string& label) {
  EXPECT_EQ(par.found, seq.found) << label;
  EXPECT_EQ(par.complete, seq.complete) << label;
  EXPECT_EQ(par.combinationsTotal, seq.combinationsTotal) << label;
  EXPECT_EQ(par.witness, seq.witness) << label;
  if (seq.cut.has_value()) {
    ASSERT_TRUE(par.cut.has_value()) << label;
    EXPECT_EQ(par.cut->last, seq.cut->last) << label;
  } else {
    EXPECT_FALSE(par.cut.has_value()) << label;
  }
  if (!seq.found) {
    EXPECT_EQ(par.combinationsTried, seq.combinationsTried) << label;
  }
}

TEST(ParPropertyTest, SingularKernelMatchesSequentialForAnyThreadCount) {
  Rng rng(628318);
  PoolSet pools;
  int unknowns = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Corpus corpus(rng, trial);
    const VectorClocks vc(corpus.computation);
    const CnfPredicate pred = singularCnf(rng);
    const std::string t = "trial " + std::to_string(trial);

    const SingularCnfResult seq =
        detectSingularByChainCover(vc, corpus.trace, pred);
    control::BudgetLimits tiny;
    tiny.maxCombinations = 1 + static_cast<std::uint64_t>(trial % 3);
    control::Budget seqBudget(tiny);
    const SingularCnfResult seqTiny =
        detectSingularByChainCover(vc, corpus.trace, pred, &seqBudget);
    if (!seqTiny.complete) ++unknowns;

    for (par::Pool* pool : pools.all) {
      const std::string label =
          t + " threads=" + std::to_string(pool->threads());
      const SingularCnfResult par =
          detectSingularByChainCover(vc, corpus.trace, pred, nullptr, pool);
      expectKernelIdentical(seq, par, label);

      control::Budget parBudget(tiny);
      const SingularCnfResult parTiny = detectSingularByChainCover(
          vc, corpus.trace, pred, &parBudget, pool);
      expectKernelIdentical(seqTiny, parTiny, label + " tiny");
      EXPECT_EQ(parBudget.reason(), seqBudget.reason()) << label;
    }
  }
  // The sweep must actually reach the budget-exhausted regime.
  EXPECT_GT(unknowns, 0);
}

TEST(ParPropertyTest, LatticeSearchMatchesSequentialForAnyThreadCount) {
  Rng rng(141421);
  PoolSet pools;
  int incompletes = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Corpus corpus(rng, trial);
    const VectorClocks vc(corpus.computation);
    const SumPredicate pred = wideSum();
    const lattice::CutPredicate phi = [&](const Cut& cut) {
      return pred.holdsAtCut(corpus.trace, cut);
    };
    const std::string t = "trial " + std::to_string(trial);

    const lattice::CutSearchResult seq =
        lattice::possibly(vc, phi);
    control::BudgetLimits tiny;
    tiny.maxCuts = 1 + static_cast<std::uint64_t>(trial % 5);
    control::Budget seqBudget(tiny);
    const lattice::CutSearchResult seqTiny =
        lattice::possibly(vc, phi, {&seqBudget});
    if (!seqTiny.complete) ++incompletes;

    for (par::Pool* poolPtr : pools.all) {
      par::Pool& pool = *poolPtr;
      const std::string label =
          t + " threads=" + std::to_string(pool.threads());

      const lattice::CutSearchResult par =
          lattice::possibly(vc, phi, {nullptr, &pool});
      EXPECT_EQ(par.complete, seq.complete) << label;
      ASSERT_EQ(par.witness.has_value(), seq.witness.has_value()) << label;
      if (seq.witness.has_value()) {
        EXPECT_EQ(par.witness->last, seq.witness->last) << label;
      }

      control::Budget parBudget(tiny);
      const lattice::CutSearchResult parTiny =
          lattice::possibly(vc, phi, {&parBudget, &pool});
      EXPECT_EQ(parTiny.complete, seqTiny.complete) << label << " tiny";
      ASSERT_EQ(parTiny.witness.has_value(), seqTiny.witness.has_value())
          << label << " tiny";
      if (seqTiny.witness.has_value()) {
        EXPECT_EQ(parTiny.witness->last, seqTiny.witness->last)
            << label << " tiny";
      }
      EXPECT_EQ(parBudget.reason(), seqBudget.reason()) << label << " tiny";
      // On a budget stop both scans charged exactly the budgeted prefix.
      if (!seqTiny.complete && !seqTiny.witness.has_value()) {
        EXPECT_EQ(parBudget.progress().cutsVisited,
                  seqBudget.progress().cutsVisited)
            << label << " tiny";
      }

      const lattice::DefinitelyDecision seqDef =
          lattice::definitely(vc, phi);
      const lattice::DefinitelyDecision parDef =
          lattice::definitely(vc, phi, {nullptr, &pool});
      EXPECT_EQ(parDef.decided, seqDef.decided) << label;
      EXPECT_EQ(parDef.holds, seqDef.holds) << label;
    }
  }
  EXPECT_GT(incompletes, 0);
}

// Progress is part of the contract: a pooled lattice search reports the
// sequential prefix as cutsVisited, gives the cut charges its workers made
// past the witness back to the budget, and sees the same frontier.
TEST(ParPropertyTest, LatticeProgressMatchesSequentialForAnyThreadCount) {
  Rng rng(271828);
  PoolSet pools;
  int hits = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Corpus corpus(rng, trial);
    const VectorClocks vc(corpus.computation);
    const SumPredicate pred = wideSum();
    const lattice::CutPredicate phi = [&](const Cut& cut) {
      return pred.holdsAtCut(corpus.trace, cut);
    };
    const std::string t = "trial " + std::to_string(trial);
    control::BudgetLimits limits;
    limits.maxCuts = trial % 2 == 0 ? 1 + static_cast<std::uint64_t>(trial % 9)
                                    : 1000000;
    control::Budget seqBudget(limits);
    const lattice::CutSearchResult seq =
        lattice::possibly(vc, phi, {&seqBudget});
    if (seq.witness.has_value()) ++hits;
    control::Budget seqDefBudget(limits);
    const lattice::DefinitelyDecision seqDef =
        lattice::definitely(vc, phi, {&seqDefBudget});

    for (par::Pool* pool : pools.all) {
      const std::string label =
          t + " threads=" + std::to_string(pool->threads());
      control::Budget parBudget(limits);
      const lattice::CutSearchResult par =
          lattice::possibly(vc, phi, {&parBudget, pool});
      EXPECT_EQ(par.explore.cutsVisited, seq.explore.cutsVisited) << label;
      EXPECT_EQ(par.explore.peakFrontierBytes, seq.explore.peakFrontierBytes)
          << label;
      EXPECT_EQ(parBudget.progress().cutsVisited,
                seqBudget.progress().cutsVisited)
          << label;
      EXPECT_EQ(parBudget.reason(), seqBudget.reason()) << label;

      control::Budget parDefBudget(limits);
      const lattice::DefinitelyDecision parDef =
          lattice::definitely(vc, phi, {&parDefBudget, pool});
      EXPECT_EQ(parDef.decided, seqDef.decided) << label;
      EXPECT_EQ(parDef.holds, seqDef.holds) << label;
      EXPECT_EQ(parDef.explore.cutsVisited, seqDef.explore.cutsVisited)
          << label;
      EXPECT_EQ(parDefBudget.progress().cutsVisited,
                seqDefBudget.progress().cutsVisited)
          << label;
    }
  }
  EXPECT_GT(hits, 0);
}

// Detector-level: the routed facade with a pool produces byte-identical
// checkpoints to the sequential facade for every predicate class that can
// reach a parallel kernel — including Unknown results, where even the
// progress counters must serialize identically.
TEST(ParPropertyTest, DetectorCheckpointsAreByteIdenticalAcrossThreads) {
  Rng rng(173205);
  PoolSet pools;
  int unknowns = 0;
  for (int trial = 0; trial < kTrials / 4; ++trial) {
    Corpus corpus(rng, trial);
    Detector det(corpus.trace);
    const CnfPredicate cnf = singularCnf(rng);
    const ConjunctivePredicate conj = allTrue(4);
    const SumPredicate wide = wideSum();
    const std::string t = "trial " + std::to_string(trial);

    control::BudgetLimits generous;
    generous.deadlineMillis = 60000;
    control::BudgetLimits tiny;
    tiny.maxCuts = 4;
    tiny.maxCombinations = 2;

    for (const bool useTiny : {false, true}) {
      const control::BudgetLimits& limits = useTiny ? tiny : generous;
      const std::string b = useTiny ? " tiny" : " generous";

      det.usePool(nullptr);
      control::Budget cnfSeq(limits);
      const std::string cnfRef =
          checkpoint(det.possibly(cnf, cnfSeq), useTiny);
      control::Budget wideSeq(limits);
      const std::string wideRef =
          checkpoint(det.possibly(wide, wideSeq), useTiny);
      control::Budget defSeq(limits);
      const std::string defRef =
          checkpoint(det.definitely(conj, defSeq), useTiny);
      if (cnfRef.find("unknown") == 0 || wideRef.find("unknown") == 0) {
        ++unknowns;
      }

      for (par::Pool* pool : pools.all) {
        det.usePool(pool);
        const std::string label =
            t + b + " threads=" + std::to_string(pool->threads());
        control::Budget cnfPar(limits);
        EXPECT_EQ(checkpoint(det.possibly(cnf, cnfPar), useTiny), cnfRef)
            << label;
        control::Budget widePar(limits);
        EXPECT_EQ(checkpoint(det.possibly(wide, widePar), useTiny), wideRef)
            << label;
        control::Budget defPar(limits);
        EXPECT_EQ(checkpoint(det.definitely(conj, defPar), useTiny), defRef)
            << label;
      }
      det.usePool(nullptr);
    }
  }
  EXPECT_GT(unknowns, 0);
}

}  // namespace
}  // namespace gpd::detect
