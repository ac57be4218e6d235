// Order-theoretic properties of the set of consistent cuts: it forms a
// lattice under componentwise min/max (the foundation beneath the whole
// paper — Theorem 4's path arguments and the possibly/definitely modalities
// all live in this lattice).
#include <gtest/gtest.h>
#include <set>

#include "computation/random.h"
#include "graph/linear_extension.h"
#include "lattice/explore.h"

namespace gpd::lattice {
namespace {

std::vector<Cut> allConsistentCuts(const VectorClocks& vc) {
  std::vector<Cut> cuts;
  explore(vc, [&](const Cut& c) {
    cuts.push_back(c);
    return true;
  });
  return cuts;
}

TEST(LatticeAlgebraTest, ClosedUnderMeetAndJoin) {
  Rng rng(100);
  for (int trial = 0; trial < 15; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.6;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    const auto cuts = allConsistentCuts(vc);
    for (const Cut& a : cuts) {
      for (const Cut& b : cuts) {
        EXPECT_TRUE(vc.isConsistent(meet(a, b)));
        EXPECT_TRUE(vc.isConsistent(join(a, b)));
      }
    }
  }
}

TEST(LatticeAlgebraTest, BottomAndTopAreExtremal) {
  Rng rng(101);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 4;
  opt.messageProbability = 0.5;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  const Cut bottom = initialCut(c);
  const Cut top = finalCut(c);
  EXPECT_TRUE(vc.isConsistent(bottom));
  EXPECT_TRUE(vc.isConsistent(top));
  explore(vc, [&](const Cut& cut) {
    EXPECT_TRUE(bottom.subsetOf(cut));
    EXPECT_TRUE(cut.subsetOf(top));
    return true;
  });
}

TEST(LatticeAlgebraTest, LatticeLawsHold) {
  const Cut a(std::vector<int>{1, 3, 0});
  const Cut b(std::vector<int>{2, 1, 2});
  const Cut c(std::vector<int>{0, 2, 1});
  // Commutativity, associativity, absorption, idempotence.
  EXPECT_EQ(meet(a, b), meet(b, a));
  EXPECT_EQ(join(a, b), join(b, a));
  EXPECT_EQ(meet(a, meet(b, c)), meet(meet(a, b), c));
  EXPECT_EQ(join(a, join(b, c)), join(join(a, b), c));
  EXPECT_EQ(meet(a, join(a, b)), a);
  EXPECT_EQ(join(a, meet(a, b)), a);
  EXPECT_EQ(meet(a, a), a);
  EXPECT_EQ(join(a, a), a);
}

// Every consistent cut lies on some run, and every run visits exactly one
// cut per level — the bijection behind "possibly ⟺ some cut" (paper
// Sec. 2.2/2.3).
TEST(LatticeAlgebraTest, EveryCutLiesOnSomeRun) {
  Rng rng(102);
  for (int trial = 0; trial < 8; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 2;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    const auto cuts = allConsistentCuts(vc);
    std::set<std::vector<int>> visited;
    graph::forEachLinearExtension(c.toDag(), [&](const std::vector<int>& run) {
      std::vector<int> idx(c.processCount(), 0);
      int placed = 0;
      for (int node : run) {
        const EventId e = c.event(node);
        idx[e.process] = e.index;
        if (++placed >= c.processCount()) visited.insert(idx);
      }
      return true;
    });
    for (const Cut& cut : cuts) {
      EXPECT_TRUE(visited.count(cut.last))
          << "cut " << cut.toString() << " on no run, trial " << trial;
    }
    EXPECT_EQ(visited.size(), cuts.size());
  }
}

TEST(LatticeAlgebraTest, RunsVisitOneCutPerLevel) {
  Rng rng(103);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.5;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  for (int i = 0; i < 10; ++i) {
    const auto run = graph::randomLinearExtension(c.toDag(), rng);
    std::vector<int> idx(c.processCount(), 0);
    int placed = 0;
    int expectedLevel = 0;
    for (int node : run) {
      const EventId e = c.event(node);
      idx[e.process] = e.index;
      if (++placed >= c.processCount()) {
        const Cut cut{std::vector<int>(idx)};
        EXPECT_TRUE(vc.isConsistent(cut));
        EXPECT_EQ(cut.level(), expectedLevel + placed - c.processCount());
      }
    }
  }
}

}  // namespace
}  // namespace gpd::lattice
