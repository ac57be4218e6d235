#include "clocks/vector_clock.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "graph/dag.h"
#include "lattice/explore.h"

namespace gpd {
namespace {

// p0: ⊥ a1 a2 ; p1: ⊥ b1 b2 ; message a1 → b2.
Computation diagonal() {
  ComputationBuilder b(2);
  const EventId a1 = b.appendEvent(0);
  b.appendEvent(0);
  b.appendEvent(1);
  const EventId b2 = b.appendEvent(1);
  b.addMessage(a1, b2);
  return std::move(b).build();
}

TEST(VectorClockTest, ClocksOnDiagonal) {
  const Computation c = diagonal();
  const VectorClocks vc(c);
  EXPECT_EQ(vc.clock({0, 1}, 0), 1);
  EXPECT_EQ(vc.clock({0, 1}, 1), 0);
  EXPECT_EQ(vc.clock({1, 2}, 0), 1);  // saw a1 through the message
  EXPECT_EQ(vc.clock({1, 2}, 1), 2);
  EXPECT_EQ(vc.clock({1, 1}, 0), 0);
}

TEST(VectorClockTest, InitialEventsPrecedeEverything) {
  const Computation c = diagonal();
  const VectorClocks vc(c);
  for (ProcessId p = 0; p < 2; ++p) {
    for (ProcessId q = 0; q < 2; ++q) {
      for (int i = 1; i < c.eventCount(q); ++i) {
        EXPECT_TRUE(vc.leq({p, 0}, {q, i}));
      }
    }
  }
  // Distinct initials are incomparable.
  EXPECT_FALSE(vc.leq({0, 0}, {1, 0}));
  EXPECT_FALSE(vc.leq({1, 0}, {0, 0}));
  EXPECT_TRUE(vc.leq({0, 0}, {0, 0}));
}

TEST(VectorClockTest, LeqMatchesDagReachability) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(4));
    opt.eventsPerProcess = 1 + static_cast<int>(rng.index(7));
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    const graph::Reachability reach(c.toDag());
    for (int u = 0; u < c.totalEvents(); ++u) {
      for (int v = 0; v < c.totalEvents(); ++v) {
        const EventId e = c.event(u);
        const EventId f = c.event(v);
        const bool expected = (u == v) || reach.reaches(u, v);
        EXPECT_EQ(vc.leq(e, f), expected)
            << "trial " << trial << " e=(" << e.process << "," << e.index
            << ") f=(" << f.process << "," << f.index << ")";
      }
    }
  }
}

TEST(VectorClockTest, PairConsistencyMatchesCutEnumeration) {
  Rng rng(13);
  for (int trial = 0; trial < 15; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    for (int u = 0; u < c.totalEvents(); ++u) {
      for (int v = 0; v < c.totalEvents(); ++v) {
        const EventId e = c.event(u);
        const EventId f = c.event(v);
        const bool viaCut = lattice::possibly(vc, [&](const Cut& cut) {
          return cut.passesThrough(e) && cut.passesThrough(f);
        }).witness.has_value();
        EXPECT_EQ(vc.pairConsistent(e, f), viaCut) << "trial " << trial;
      }
    }
  }
}

TEST(VectorClockTest, CutConsistencyMatchesMessageClosure) {
  // A prefix-vector cut is consistent iff it is closed under message edges.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.6;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    // Enumerate all prefix vectors.
    std::vector<int> idx(c.processCount(), 0);
    while (true) {
      const Cut cut{std::vector<int>(idx)};
      bool closed = true;
      for (const Message& m : c.messages()) {
        if (cut.contains(m.receive) && !cut.contains(m.send)) {
          closed = false;
          break;
        }
      }
      EXPECT_EQ(vc.isConsistent(cut), closed) << cut.toString();
      // Advance odometer.
      int p = 0;
      while (p < c.processCount() && idx[p] + 1 >= c.eventCount(p)) {
        idx[p] = 0;
        ++p;
      }
      if (p == c.processCount()) break;
      ++idx[p];
    }
  }
}

TEST(VectorClockTest, EnabledMatchesConsistencyOfSuccessor) {
  Rng rng(19);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 5;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  lattice::explore(vc, [&](const Cut& cut) {
    for (ProcessId p = 0; p < c.processCount(); ++p) {
      if (cut.last[p] + 1 >= c.eventCount(p)) continue;
      Cut succ = cut;
      ++succ.last[p];
      EXPECT_EQ(vc.enabled(p, cut), vc.isConsistent(succ));
    }
    return true;
  });
}

TEST(VectorClockTest, LeastCutThroughEventsIsMinimal) {
  const Computation c = diagonal();
  const VectorClocks vc(c);
  // a1 and b1 are pairwise consistent; least cut through both is [1,1].
  const Cut cut = vc.leastConsistentCutThrough({{0, 1}, {1, 1}});
  EXPECT_EQ(cut.last, (std::vector<int>{1, 1}));
}

TEST(VectorClockTest, LeastCutPullsInCausalHistory) {
  const Computation c = diagonal();
  const VectorClocks vc(c);
  // A cut through b2 must include a1 (its message sender).
  const Cut cut = vc.leastConsistentCutThrough({{1, 2}});
  EXPECT_EQ(cut.last, (std::vector<int>{1, 2}));
}

TEST(VectorClockTest, LeastCutRejectsInconsistentEvents) {
  ComputationBuilder b(2);
  const EventId a1 = b.appendEvent(0);
  b.appendEvent(0);
  const EventId b1 = b.appendEvent(1);
  b.addMessage(a1, b1);
  // succ(a1)? No: a1 → b1, so a cut through ⊥₀ and b1 is impossible.
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  EXPECT_THROW(vc.leastConsistentCutThrough({{0, 0}, {1, 1}}), CheckFailure);
}

// Observation 1 of the paper: pairwise consistent events (not necessarily
// from all processes) always extend to a consistent cut through all of them.
TEST(VectorClockTest, Observation1OnRandomComputations) {
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 4;
    opt.eventsPerProcess = 5;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    // Sample a few random event pairs/triples; when pairwise consistent, a
    // cut through all must exist.
    for (int s = 0; s < 30; ++s) {
      std::vector<EventId> events;
      const int count = 2 + static_cast<int>(rng.index(2));
      for (int i = 0; i < count; ++i) {
        const ProcessId p = static_cast<ProcessId>(rng.index(4));
        events.push_back({p, static_cast<int>(rng.index(c.eventCount(p)))});
      }
      bool pairwise = true;
      for (std::size_t i = 0; i < events.size() && pairwise; ++i) {
        for (std::size_t j = i + 1; j < events.size(); ++j) {
          if (!vc.pairConsistent(events[i], events[j])) {
            pairwise = false;
            break;
          }
        }
      }
      if (!pairwise) continue;
      const Cut cut = vc.leastConsistentCutThrough(events);  // checks inside
      EXPECT_TRUE(vc.isConsistent(cut));
    }
  }
}

}  // namespace
}  // namespace gpd
