#include "detect/slice.h"

#include <gtest/gtest.h>
#include <unordered_set>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

struct RegularInstance {
  Computation comp;
  VariableTrace trace;
  VectorClocks clocks;
  ConjunctivePredicate pred;

  RegularInstance(Computation c, Rng& rng, double density)
      : comp(std::move(c)), trace(comp), clocks(comp) {
    defineRandomBools(trace, "b", density, rng);
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      pred.terms.push_back(varTrue(p, "b"));
    }
  }

  bool satisfied(const Cut& cut) const { return pred.holdsAtCut(trace, cut); }
};

RegularInstance makeInstance(std::uint64_t seed, double density) {
  Rng rng(seed);
  RandomComputationOptions opt;
  opt.processes = 2 + static_cast<int>(rng.index(2));
  opt.eventsPerProcess = 2 + static_cast<int>(rng.index(3));
  opt.messageProbability = 0.5;
  Computation comp = randomComputation(opt, rng);
  return RegularInstance(std::move(comp), rng, density);
}

// Conjunctive predicates are regular: their satisfying cuts are closed
// under meet and join — verified directly, since slicing assumes it.
TEST(SliceTest, ConjunctivePredicatesAreRegular) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RegularInstance inst = makeInstance(seed, 0.5);
    std::vector<Cut> satisfying;
    lattice::explore(inst.clocks, [&](const Cut& cut) {
      if (inst.satisfied(cut)) satisfying.push_back(cut);
      return true;
    });
    for (const Cut& a : satisfying) {
      for (const Cut& b : satisfying) {
        EXPECT_TRUE(inst.satisfied(meet(a, b)));
        EXPECT_TRUE(inst.satisfied(join(a, b)));
      }
    }
  }
}

TEST(SliceTest, LeastCutsAreLeastSatisfyingCutsContainingTheEvent) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RegularInstance inst = makeInstance(seed, 0.5);
    const Slice slice =
        computeSlice(inst.clocks, conjunctiveOracle(inst.trace, inst.pred));
    for (int node = 0; node < inst.comp.totalEvents(); ++node) {
      const EventId e = inst.comp.event(node);
      // Brute-force least satisfying cut containing e.
      std::optional<Cut> best;
      lattice::explore(inst.clocks, [&](const Cut& cut) {
        if (cut.contains(e) && inst.satisfied(cut)) {
          if (!best) best = cut;  // level order: first hit is least by level
          // Least by inclusion requires a subset check among hits:
          if (cut.subsetOf(*best)) best = cut;
        }
        return true;
      });
      ASSERT_EQ(slice.leastCut[node].has_value(), best.has_value())
          << "seed " << seed << " node " << node;
      if (best) {
        // The slice's J must be a satisfying cut containing e and below
        // every satisfying cut containing e.
        const Cut& j = *slice.leastCut[node];
        EXPECT_TRUE(inst.satisfied(j));
        EXPECT_TRUE(j.contains(e));
        lattice::explore(inst.clocks, [&](const Cut& cut) {
          if (cut.contains(e) && inst.satisfied(cut)) {
            EXPECT_TRUE(j.subsetOf(cut));
          }
          return true;
        });
      }
    }
  }
}

// The fundamental theorem of slicing: membership in the sublattice is
// decidable from the slice alone.
TEST(SliceTest, SliceMembershipEqualsPredicate) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RegularInstance inst = makeInstance(seed, 0.45);
    const Slice slice =
        computeSlice(inst.clocks, conjunctiveOracle(inst.trace, inst.pred));
    lattice::explore(inst.clocks, [&](const Cut& cut) {
      EXPECT_EQ(sliceSatisfies(slice, inst.clocks, cut), inst.satisfied(cut))
          << "seed " << seed << " cut " << cut.toString();
      return true;
    });
  }
}

TEST(SliceTest, CountMatchesLattice) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RegularInstance inst = makeInstance(seed, 0.5);
    const Slice slice =
        computeSlice(inst.clocks, conjunctiveOracle(inst.trace, inst.pred));
    std::uint64_t expected = 0;
    lattice::explore(inst.clocks, [&](const Cut& cut) {
      expected += inst.satisfied(cut);
      return true;
    });
    const SliceCount got = countSatisfyingCuts(slice, inst.clocks);
    EXPECT_TRUE(got.complete);
    EXPECT_FALSE(got.saturated);
    EXPECT_EQ(got.count, expected) << "seed " << seed;
  }
}

TEST(SliceTest, BottomAndTopBracketTheSublattice) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RegularInstance inst = makeInstance(seed, 0.6);
    const Slice slice =
        computeSlice(inst.clocks, conjunctiveOracle(inst.trace, inst.pred));
    if (!slice.satisfiable) continue;
    EXPECT_TRUE(inst.satisfied(slice.bottom));
    EXPECT_TRUE(inst.satisfied(slice.top));
    lattice::explore(inst.clocks, [&](const Cut& cut) {
      if (inst.satisfied(cut)) {
        EXPECT_TRUE(slice.bottom.subsetOf(cut));
        EXPECT_TRUE(cut.subsetOf(slice.top));
      }
      return true;
    });
  }
}

TEST(SliceTest, UnsatisfiablePredicateYieldsEmptySlice) {
  RegularInstance inst = makeInstance(3, 0.5);
  // Add an always-false conjunct.
  inst.trace.defineBool(0, "never",
                        std::vector<bool>(inst.comp.eventCount(0), false));
  ConjunctivePredicate pred = inst.pred;
  pred.terms[0] = varTrue(0, "never");
  const Slice slice =
      computeSlice(inst.clocks, conjunctiveOracle(inst.trace, pred));
  EXPECT_FALSE(slice.satisfiable);
  EXPECT_EQ(countSatisfyingCuts(slice, inst.clocks).count, 0u);
  for (const auto& j : slice.leastCut) EXPECT_FALSE(j.has_value());
}

// Reduction-gadget regression: 64 independent processes of 3 events each
// under an always-true predicate have 3^64 satisfying cuts — far past
// 2^64-1. The pre-fix counter multiplied raw uint64_t factors and wrapped
// to a small (even plausible-looking) value; the count must instead clamp
// at UINT64_MAX and say so.
TEST(SliceTest, CountSaturatesInsteadOfWrapping) {
  ComputationBuilder builder(64);
  for (ProcessId p = 0; p < 64; ++p) {
    builder.appendEvent(p);
    builder.appendEvent(p);
  }
  const Computation comp = std::move(builder).build();
  const VectorClocks clocks(comp);
  const ForbiddenFn always = [](const Cut&) -> std::optional<ProcessId> {
    return std::nullopt;
  };
  const Slice slice = computeSlice(clocks, always);
  ASSERT_TRUE(slice.satisfiable);
  const SliceCount count = countSatisfyingCuts(slice, clocks);
  EXPECT_TRUE(count.saturated);
  EXPECT_TRUE(count.complete);
  EXPECT_EQ(count.count, UINT64_MAX);
}

// The slice build charges its oracle calls against the budget (one cut per
// call, through detectLinearFrom); exhaustion yields an honest incomplete
// slice instead of a silently unbudgeted loop.
TEST(SliceTest, BuildChargesBudgetAndStopsIncomplete) {
  const RegularInstance inst = makeInstance(7, 0.5);
  control::BudgetLimits limits;
  limits.maxCuts = 2;
  control::Budget budget(limits);
  SliceOptions options;
  options.budget = &budget;
  const Slice slice =
      computeSlice(inst.clocks, conjunctiveOracle(inst.trace, inst.pred),
                   options);
  EXPECT_FALSE(slice.complete);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.reason(), control::StopReason::CutLimit);
}

// The general (non-product) counting BFS is budget-charged too.
TEST(SliceTest, CountChargesBudgetOnGeneralPath) {
  ComputationBuilder builder(2);
  const EventId send = builder.appendEvent(0);
  const EventId recv = builder.appendEvent(1);
  builder.appendEvent(0);
  builder.appendEvent(1);
  builder.addMessage(send, recv);
  const Computation comp = std::move(builder).build();
  const VectorClocks clocks(comp);
  const Slice slice = computeSlice(clocks, channelsEmptyOracle(comp));
  ASSERT_TRUE(slice.satisfiable);
  control::BudgetLimits limits;
  limits.maxCuts = 1;
  control::Budget budget(limits);
  const SliceCount capped = countSatisfyingCuts(slice, clocks, &budget);
  EXPECT_FALSE(capped.complete);
  const SliceCount full = countSatisfyingCuts(slice, clocks);
  EXPECT_TRUE(full.complete);
  EXPECT_LE(capped.count, full.count);
}

// Soundness gate: a merely-linear (non-regular) oracle must be refused with
// a typed error, not turned into a silently wrong slice. The L-shape
// predicate "last[0] == 0 or last[1] == 0" is linear (a violating cut can
// never be repaired, so any forbidden process is vacuously sound) but its
// two least cuts (1,0) and (0,1) join to the violating (1,1).
TEST(SliceTest, MerelyLinearOracleThrowsInputError) {
  ComputationBuilder builder(2);
  builder.appendEvent(0);
  builder.appendEvent(1);
  const Computation comp = std::move(builder).build();
  const VectorClocks clocks(comp);
  const ForbiddenFn lShape = [](const Cut& cut) -> std::optional<ProcessId> {
    if (cut.last[0] > 0 && cut.last[1] > 0) return ProcessId{0};
    return std::nullopt;
  };
  EXPECT_THROW(computeSlice(clocks, lShape), InputError);
  // The detector-internal opt-out (soundness established elsewhere) must
  // not throw — it is the planner's regularity gate that protects it.
  SliceOptions unchecked;
  unchecked.verifyRegular = false;
  EXPECT_NO_THROW(computeSlice(clocks, lShape, unchecked));
}

// Channel predicates ("no message in flight") are the other classical
// regular family; the same slice machinery applies via their oracle.
TEST(SliceTest, EmptyChannelsSliceMembership) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.6;
    const Computation comp = randomComputation(opt, rng);
    const VectorClocks clocks(comp);
    const auto oracle = channelsEmptyOracle(comp);
    const Slice slice = computeSlice(clocks, oracle);
    ASSERT_TRUE(slice.satisfiable);  // the initial cut always qualifies
    lattice::explore(clocks, [&](const Cut& cut) {
      EXPECT_EQ(sliceSatisfies(slice, clocks, cut), !oracle(cut).has_value())
          << "trial " << trial << " cut " << cut.toString();
      return true;
    });
  }
}

}  // namespace
}  // namespace gpd::detect
