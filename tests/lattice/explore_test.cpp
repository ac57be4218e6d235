#include "lattice/explore.h"

#include <gtest/gtest.h>
#include <set>

#include "computation/random.h"
#include "graph/linear_extension.h"

namespace gpd::lattice {
namespace {

Computation independent(int processes, int events) {
  ComputationBuilder b(processes);
  for (ProcessId p = 0; p < processes; ++p) {
    for (int i = 0; i < events; ++i) b.appendEvent(p);
  }
  return std::move(b).build();
}

TEST(LatticeTest, IndependentProcessesFormGrid) {
  const Computation c = independent(2, 3);
  const VectorClocks vc(c);
  std::uint64_t count = 0;
  explore(vc, [&](const Cut&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 16u);  // (3+1)^2
}

TEST(LatticeTest, MessagesPruneTheLattice) {
  ComputationBuilder b(2);
  const EventId s = b.appendEvent(0);
  const EventId r = b.appendEvent(1);
  b.addMessage(s, r);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  // Grid would have 4 cuts; [0,1] is inconsistent (receive without send).
  EXPECT_EQ(latticeStats(vc).cutCount, 3u);
}

TEST(LatticeTest, VisitsEachCutOnceInLevelOrder) {
  Rng rng(3);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 4;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  std::set<std::vector<int>> seen;
  int lastLevel = -1;
  explore(vc, [&](const Cut& cut) {
    EXPECT_TRUE(vc.isConsistent(cut));
    EXPECT_TRUE(seen.insert(cut.last).second) << "duplicate " << cut.toString();
    EXPECT_GE(cut.level(), lastLevel);
    lastLevel = cut.level();
    return true;
  });
  EXPECT_FALSE(seen.empty());
}

TEST(LatticeTest, EnumerationCoversAllConsistentPrefixVectors) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.6;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    // Count consistent cuts by brute force over the full grid.
    std::uint64_t expected = 0;
    std::vector<int> idx(c.processCount(), 0);
    while (true) {
      if (vc.isConsistent(Cut{std::vector<int>(idx)})) ++expected;
      int p = 0;
      while (p < c.processCount() && idx[p] + 1 >= c.eventCount(p)) {
        idx[p] = 0;
        ++p;
      }
      if (p == c.processCount()) break;
      ++idx[p];
    }
    EXPECT_EQ(latticeStats(vc).cutCount, expected) << "trial " << trial;
  }
}

TEST(LatticeTest, StatsOnGrid) {
  const Computation c = independent(2, 2);
  const VectorClocks vc(c);
  const LatticeStats stats = latticeStats(vc);
  EXPECT_EQ(stats.cutCount, 9u);
  EXPECT_EQ(stats.levels, 5);   // levels 0..4
  EXPECT_EQ(stats.maxWidth, 3u);  // the middle diagonal
  EXPECT_TRUE(stats.complete);
}

TEST(LatticeTest, StatsStopEarlyWhenTheBudgetTrips) {
  const Computation c = independent(3, 3);
  const VectorClocks vc(c);
  const std::uint64_t full = latticeStats(vc).cutCount;
  control::BudgetLimits tight;
  tight.maxCuts = 4;
  control::Budget budget(tight);
  const LatticeStats stats = latticeStats(vc, {&budget});
  EXPECT_FALSE(stats.complete);
  EXPECT_LT(stats.cutCount, full);
  // A roomy budget changes nothing.
  control::BudgetLimits wide;
  wide.maxCuts = full * 2;
  control::Budget roomy(wide);
  const LatticeStats again = latticeStats(vc, {&roomy});
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.cutCount, full);
}

TEST(LatticeTest, PossiblyFindsWitness) {
  const Computation c = independent(2, 2);
  const VectorClocks vc(c);
  const auto cut =
      possibly(vc, [](const Cut& cut) {
        return cut.last[0] == 1 && cut.last[1] == 2;
      }).witness;
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->last, (std::vector<int>{1, 2}));
  EXPECT_FALSE(possibly(vc, [](const Cut& cut) { return cut.last[0] > 5; })
                   .witness.has_value());
}

TEST(LatticeTest, DefinitelyAtInitialOrFinal) {
  const Computation c = independent(2, 2);
  const VectorClocks vc(c);
  EXPECT_TRUE(definitely(
      vc, [](const Cut& cut) { return cut.level() == 0; }).holds);
  EXPECT_TRUE(definitely(
      vc, [](const Cut& cut) { return cut.level() == 4; }).holds);
  // Every run passes through exactly one level-2 cut.
  EXPECT_TRUE(definitely(
      vc, [](const Cut& cut) { return cut.level() == 2; }).holds);
}

TEST(LatticeTest, PossiblyButNotDefinitely) {
  const Computation c = independent(2, 1);
  const VectorClocks vc(c);
  // The cut [1,0]: possible, but the run executing p1 first avoids it.
  const auto phi = [](const Cut& cut) {
    return cut.last[0] == 1 && cut.last[1] == 0;
  };
  EXPECT_TRUE(possibly(vc, phi).witness.has_value());
  EXPECT_FALSE(definitely(vc, phi).holds);
}

// Ground truth via run enumeration: possibly(φ) iff some linear extension
// passes a φ-cut; definitely(φ) iff all do.
TEST(LatticeTest, ModalitiesMatchRunEnumeration) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(2));
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);

    // A pseudo-random but deterministic predicate over cuts.
    const std::uint64_t salt = rng.next();
    const auto phi = [&](const Cut& cut) {
      std::size_t h = std::hash<Cut>{}(cut) ^ salt;
      return h % 5 == 0;
    };

    bool anyRunHits = false;
    bool allRunsHit = true;
    graph::forEachLinearExtension(
        c.toDag(), [&](const std::vector<int>& order) {
          std::vector<int> idx(c.processCount(), 0);
          int placed = 0;
          bool hit = false;
          // The initial events execute first (initial-precedence edges).
          for (int node : order) {
            const EventId e = c.event(node);
            idx[e.process] = e.index;
            ++placed;
            if (placed >= c.processCount()) {
              if (phi(Cut{std::vector<int>(idx)})) hit = true;
            }
          }
          anyRunHits |= hit;
          allRunsHit &= hit;
          return true;
        });

    EXPECT_EQ(possibly(vc, phi).witness.has_value(), anyRunHits)
        << "trial " << trial;
    EXPECT_EQ(definitely(vc, phi).holds, allRunsHit) << "trial " << trial;
  }
}

TEST(LatticeTest, EarlyStopCountsVisited) {
  const Computation c = independent(2, 3);
  const VectorClocks vc(c);
  int calls = 0;
  const auto visited = explore(vc, [&](const Cut&) {
    return ++calls < 4;
  }).cutsVisited;
  EXPECT_EQ(visited, 4u);
}

TEST(LatticeBudgetTest, ExploreEndDistinguishesThreeStopKinds) {
  const Computation c = independent(2, 3);
  const VectorClocks vc(c);

  const ExploreResult full =
      explore(vc, [](const Cut&) { return true; });
  EXPECT_EQ(full.end, ExploreEnd::Exhausted);
  EXPECT_EQ(full.cutsVisited, 16u);
  EXPECT_GT(full.peakFrontierCuts, 0u);
  EXPECT_GT(full.peakFrontierBytes, 0u);

  int calls = 0;
  const ExploreResult stopped =
      explore(vc, [&](const Cut&) { return ++calls < 4; });
  EXPECT_EQ(stopped.end, ExploreEnd::VisitorStopped);
  EXPECT_EQ(stopped.cutsVisited, 4u);

  control::BudgetLimits limits;
  limits.maxCuts = 5;
  control::Budget budget(limits);
  const ExploreResult cut =
      explore(vc, [](const Cut&) { return true; }, {&budget});
  EXPECT_EQ(cut.end, ExploreEnd::BudgetExhausted);
  EXPECT_EQ(cut.cutsVisited, 5u);  // exactly the budget, never more
  EXPECT_EQ(budget.reason(), control::StopReason::CutLimit);
}

TEST(LatticeBudgetTest, UnlimitedBudgetMatchesUnbudgetedCount) {
  Rng rng(91);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 4;
  opt.messageProbability = 0.4;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  control::Budget unlimited;
  const ExploreResult budgeted =
      explore(vc, [](const Cut&) { return true; }, {&unlimited});
  EXPECT_EQ(budgeted.end, ExploreEnd::Exhausted);
  EXPECT_EQ(budgeted.cutsVisited,
            explore(vc, [](const Cut&) { return true; }).cutsVisited);
}

TEST(LatticeBudgetTest, FrontierLimitStopsTheGrid) {
  // A wide independent grid has a frontier of many cuts; one byte of
  // frontier budget must trip almost immediately.
  const Computation c = independent(4, 4);
  const VectorClocks vc(c);
  control::BudgetLimits limits;
  limits.maxFrontierBytes = 1;
  control::Budget budget(limits);
  const ExploreResult r =
      explore(vc, [](const Cut&) { return true; }, {&budget});
  EXPECT_EQ(r.end, ExploreEnd::BudgetExhausted);
  EXPECT_EQ(budget.reason(), control::StopReason::FrontierLimit);
  EXPECT_LT(r.cutsVisited, 625u);  // nowhere near the 5^4 total
}

TEST(LatticeBudgetTest, SearchCompleteSemantics) {
  const Computation c = independent(2, 3);
  const VectorClocks vc(c);

  // A witness found in budget is complete even under a tiny budget: Yes
  // never degrades.
  control::BudgetLimits one;
  one.maxCuts = 1;
  control::Budget witnessBudget(one);
  const CutSearchResult hit = possibly(
      vc, [](const Cut& cut) { return cut.level() == 0; }, {&witnessBudget});
  ASSERT_TRUE(hit.witness.has_value());
  EXPECT_TRUE(hit.complete);

  // Exhausting the lattice without a witness is an exact No.
  const CutSearchResult miss = possibly(
      vc, [](const Cut& cut) { return cut.last[0] > 5; });
  EXPECT_FALSE(miss.witness.has_value());
  EXPECT_TRUE(miss.complete);
  EXPECT_EQ(miss.explore.end, ExploreEnd::Exhausted);

  // A budget stop before a witness is incomplete: no witness is not a No.
  control::Budget tiny(one);
  const CutSearchResult unknown = possibly(
      vc, [](const Cut& cut) { return cut.last[0] > 5; }, {&tiny});
  EXPECT_FALSE(unknown.witness.has_value());
  EXPECT_FALSE(unknown.complete);
  EXPECT_EQ(unknown.explore.end, ExploreEnd::BudgetExhausted);
}

TEST(LatticeBudgetTest, DefinitelyBudgetedDecidesOrAdmitsIgnorance) {
  const Computation c = independent(2, 2);
  const VectorClocks vc(c);
  const auto midLevel = [](const Cut& cut) { return cut.level() == 2; };

  // Generous budget: decided, and agrees with the unbudgeted oracle.
  control::BudgetLimits generous;
  generous.maxCuts = 1000;
  control::Budget big(generous);
  const DefinitelyDecision d = definitely(vc, midLevel, {&big});
  EXPECT_TRUE(d.decided);
  EXPECT_EQ(d.holds, definitely(vc, midLevel).holds);

  // Tiny budget on the same query: undecided, never a guess.
  control::BudgetLimits one;
  one.maxCuts = 1;
  control::Budget tiny(one);
  const DefinitelyDecision u =
      definitely(vc, midLevel, {&tiny});
  EXPECT_FALSE(u.decided);

  // φ(⊥) is checked before any charge: an initial-state predicate decides
  // true even when the budget is already exhausted.
  control::Budget spent(one);
  while (spent.chargeCut()) {
  }
  ASSERT_TRUE(spent.exhausted());
  const DefinitelyDecision init = definitely(
      vc, [](const Cut& cut) { return cut.level() == 0; }, {&spent});
  EXPECT_TRUE(init.decided);
  EXPECT_TRUE(init.holds);
}

}  // namespace
}  // namespace gpd::lattice
