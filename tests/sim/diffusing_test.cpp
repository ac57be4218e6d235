// Dijkstra–Scholten termination detection, validated with the detectors:
// the root's declaration is sound (at its causal cut the computation is
// passive and quiet) and the underlying "terminated" predicate is stable.
#include <gtest/gtest.h>

#include "clocks/vector_clock.h"
#include "detect/linear.h"
#include "detect/stable.h"
#include "sim/workloads.h"

namespace gpd::sim {
namespace {

// The event at which the root sets terminated = 1.
std::optional<EventId> declarationEvent(const SimResult& run) {
  const Computation& c = *run.computation;
  for (int e = 1; e < c.eventCount(0); ++e) {
    if (run.trace->value(0, "terminated", e) != 0 &&
        run.trace->value(0, "terminated", e - 1) == 0) {
      return EventId{0, e};
    }
  }
  return std::nullopt;
}

TEST(DiffusingTest, RootAlwaysDeclaresTermination) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    DiffusingOptions opt;
    opt.seed = seed;
    const SimResult run = diffusingComputation(opt);
    const Cut fin = finalCut(*run.computation);
    EXPECT_EQ(run.trace->valueAtCut(fin, 0, "terminated"), 1)
        << "seed " << seed;
    for (ProcessId p = 0; p < opt.processes; ++p) {
      EXPECT_EQ(run.trace->valueAtCut(fin, p, "active"), 0) << "seed " << seed;
    }
  }
}

TEST(DiffusingTest, DeclarationIsSound) {
  // At the declaration's causal-history cut: everyone passive, nothing in
  // flight — exactly the linear termination oracle's satisfaction.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    DiffusingOptions opt;
    opt.seed = seed;
    opt.processes = 4;
    const SimResult run = diffusingComputation(opt);
    const auto decl = declarationEvent(run);
    ASSERT_TRUE(decl.has_value()) << "seed " << seed;
    const VectorClocks vc(*run.computation);
    const Cut cut = vc.leastConsistentCutThrough({*decl});
    const auto oracle = detect::terminationOracle(*run.trace, "active");
    EXPECT_FALSE(oracle(cut).has_value())
        << "seed " << seed << ": computation not terminated at declaration";
  }
}

TEST(DiffusingTest, WorkActuallySpreads) {
  int trialsWithRemoteWork = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DiffusingOptions opt;
    opt.seed = seed;
    opt.spawnProbability = 0.8;
    opt.totalWorkBudget = 16;
    const SimResult run = diffusingComputation(opt);
    const Cut fin = finalCut(*run.computation);
    std::int64_t remoteWork = 0;
    for (ProcessId p = 1; p < opt.processes; ++p) {
      remoteWork += run.trace->valueAtCut(fin, p, "worked");
    }
    trialsWithRemoteWork += remoteWork > 0;
  }
  EXPECT_GT(trialsWithRemoteWork, 5);
}

TEST(DiffusingTest, TerminationPredicateIsStableAndLinearDetectable) {
  DiffusingOptions opt;
  opt.seed = 4;
  opt.processes = 4;
  opt.totalWorkBudget = 6;
  const SimResult run = diffusingComputation(opt);
  const VectorClocks vc(*run.computation);
  const auto oracle = detect::terminationOracle(*run.trace, "active");
  // Subtlety: "all passive ∧ nothing in flight" also holds at the *initial*
  // cut, before the environment kicks the root — and is destroyed there.
  // Termination is stable only once the computation has started, so the
  // stable predicate conjoins "the root has worked".
  const auto quiet = [&](const Cut& cut) { return !oracle(cut).has_value(); };
  const auto phi = [&](const Cut& cut) {
    return quiet(cut) && run.trace->valueAtCut(cut, 0, "worked") >= 1;
  };
  EXPECT_FALSE(detect::isStableOn(vc, quiet));  // the naive predicate is not
  EXPECT_TRUE(detect::isStableOn(vc, phi));     // the started-form is
  // The stable detector sees it at the final cut.
  EXPECT_TRUE(detect::detectStable(*run.computation, phi).possibly);
  // The linear detector finds the least satisfying cut. "Root has started"
  // keeps the oracle linear: a violating cut with an idle root must advance
  // the root.
  const auto startedOracle = [&](const Cut& cut) -> std::optional<ProcessId> {
    if (run.trace->valueAtCut(cut, 0, "worked") < 1) return ProcessId{0};
    return oracle(cut);
  };
  const auto least = detect::detectLinear(vc, startedOracle);
  ASSERT_TRUE(least.cut.has_value());
  EXPECT_TRUE(phi(*least.cut));
  EXPECT_GT(least.cut->level(), 0);  // strictly after the initial cut
}

TEST(DiffusingTest, DeclarationNeverPrecedesQuiescence) {
  // definitely-style check: there is no consistent cut where the root has
  // declared but some process is still active.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DiffusingOptions opt;
    opt.seed = seed;
    opt.processes = 4;
    const SimResult run = diffusingComputation(opt);
    const VectorClocks vc(*run.computation);
    bool unsound = false;
    lattice::explore(vc, [&](const Cut& cut) {
      if (run.trace->valueAtCut(cut, 0, "terminated") == 0) return true;
      for (ProcessId p = 0; p < opt.processes; ++p) {
        if (run.trace->valueAtCut(cut, p, "active") != 0) {
          unsound = true;
          return false;
        }
      }
      return true;
    });
    EXPECT_FALSE(unsound) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gpd::sim
