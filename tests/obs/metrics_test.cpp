// gpd::obs metrics registry: instrument semantics (counter, gauge,
// log2 histogram), stable name → instrument resolution, reset, and both
// renderers. The renderer tests pin the pre-registered metric inventory —
// the contract that `gpdtool --stats` always reports the full set (zeros
// included) rather than only metrics that happened to fire.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "computation/computation.h"
#include "lattice/explore.h"
#include "obs_test_util.h"
#include "par/pool.h"

namespace gpd::obs {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetOverwritesMaxOnlyRaises) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.set(3);  // set is last-writer-wins, even downward
  EXPECT_EQ(g.value(), 3);
  g.max(10);
  EXPECT_EQ(g.value(), 10);
  g.max(5);  // max never lowers the peak
  EXPECT_EQ(g.value(), 10);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucketOf(0), 0);
  EXPECT_EQ(Histogram::bucketOf(1), 1);
  EXPECT_EQ(Histogram::bucketOf(2), 2);
  EXPECT_EQ(Histogram::bucketOf(3), 2);
  EXPECT_EQ(Histogram::bucketOf(4), 3);
  EXPECT_EQ(Histogram::bucketOf(1023), 10);
  EXPECT_EQ(Histogram::bucketOf(1024), 11);
  EXPECT_EQ(Histogram::bucketOf(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64);
}

TEST(Histogram, ObserveTracksCountSumBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(3);
  h.observe(3);
  h.observe(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.bucket(0), 1u);  // value 0
  EXPECT_EQ(h.bucket(2), 2u);  // the two 3s
  EXPECT_EQ(h.bucket(7), 1u);  // 100 ∈ [64, 128)
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Registry, InstrumentReferencesAreStable) {
  Registry& reg = registry();
  Counter& a = reg.counter("cpdhb_invocations");
  Counter& b = reg.counter("cpdhb_invocations");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("frontier_cuts_peak");
  Gauge& g2 = reg.gauge("frontier_cuts_peak");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.histogram("plan_vs_actual");
  Histogram& h2 = reg.histogram("plan_vs_actual");
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, ResetZeroesEveryInstrument) {
  Registry& reg = registry();
  reg.counter("cpdhb_invocations").add(5);
  reg.gauge("frontier_cuts_peak").max(9);
  reg.histogram("plan_vs_actual").observe(17);
  reg.reset();
  EXPECT_EQ(reg.counter("cpdhb_invocations").value(), 0u);
  EXPECT_EQ(reg.gauge("frontier_cuts_peak").value(), 0);
  EXPECT_EQ(reg.histogram("plan_vs_actual").count(), 0u);
}

// The ctor pre-registers the full inventory, so both renderers list every
// metric even before anything fires.
TEST(Renderers, TextListsPreRegisteredInventory) {
  registry().reset();
  std::ostringstream os;
  renderMetricsText(os, registry());
  const std::string text = os.str();
  for (const char* name :
       {"cpdhb_invocations", "cpdhb_comparisons", "cuts_enumerated",
        "lattice_explorations", "dpll_decisions", "dnf_terms_tried",
        "monitor_notifications", "monitor_nacks_sent", "monitor_retransmits",
        "plan_steps_run", "plan_steps_skipped", "plan_predicted_combinations",
        "plan_actual_combinations", "budget_clock_reads",
        "frontier_cuts_peak", "frontier_bytes_peak",
        "enumeration_combinations", "plan_vs_actual"}) {
    EXPECT_NE(text.find(name), std::string::npos) << "missing " << name;
  }
}

TEST(Renderers, JsonIsWellFormedAndGrouped) {
  registry().reset();
  registry().counter("cpdhb_invocations").add(3);
  registry().histogram("plan_vs_actual").observe(12);
  std::ostringstream os;
  renderMetricsJson(os, registry());
  const std::string json = os.str();
  EXPECT_TRUE(obs::testing::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"cpdhb_invocations\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan_vs_actual\""), std::string::npos);
  registry().reset();
}

TEST(Macros, RecordIntoTheProcessRegistry) {
  registry().reset();
  GPD_OBS_COUNTER_ADD("cpdhb_invocations", 2);
  GPD_OBS_GAUGE_MAX("frontier_cuts_peak", 11);
  GPD_OBS_HISTOGRAM("plan_vs_actual", 5);
#ifndef GPD_OBS_DISABLED
  EXPECT_EQ(registry().counter("cpdhb_invocations").value(), 2u);
  EXPECT_EQ(registry().gauge("frontier_cuts_peak").value(), 11);
  EXPECT_EQ(registry().histogram("plan_vs_actual").count(), 1u);
#else
  // Kill switch: the macros compile to nothing, instruments stay zero.
  EXPECT_EQ(registry().counter("cpdhb_invocations").value(), 0u);
  EXPECT_EQ(registry().gauge("frontier_cuts_peak").value(), 0);
  EXPECT_EQ(registry().histogram("plan_vs_actual").count(), 0u);
#endif
  registry().reset();
}

// Every lattice search goes through the one BFS driver, so the definitely
// searches (sequential and pooled) and latticeStats publish the same
// exploration counters as the possibly search.
TEST(Counter, EveryLatticeSearchPublishesItsCuts) {
  ComputationBuilder b(2);
  for (ProcessId p = 0; p < 2; ++p) {
    b.appendEvent(p);
    b.appendEvent(p);
  }
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  // Every run passes a level-2 cut; the search walks the ¬φ cuts below.
  const lattice::CutPredicate midLevel = [](const Cut& cut) {
    return cut.level() == 2;
  };
  par::Pool pool(2);
  for (par::Pool* p : {static_cast<par::Pool*>(nullptr), &pool}) {
    registry().reset();
    const lattice::DefinitelyDecision d =
        lattice::definitely(vc, midLevel, {nullptr, p});
    ASSERT_TRUE(d.decided);
    EXPECT_TRUE(d.holds);
    EXPECT_EQ(d.explore.cutsVisited, 3u);
#ifndef GPD_OBS_DISABLED
    EXPECT_EQ(registry().counter("lattice_explorations").value(), 1u);
    EXPECT_EQ(registry().counter("cuts_enumerated").value(), 3u);
    EXPECT_GT(registry().gauge("frontier_cuts_peak").value(), 0);
#endif
  }
  registry().reset();
  EXPECT_EQ(lattice::latticeStats(vc).cutCount, 9u);
#ifndef GPD_OBS_DISABLED
  EXPECT_EQ(registry().counter("lattice_explorations").value(), 1u);
  EXPECT_EQ(registry().counter("cuts_enumerated").value(), 9u);
#endif
  registry().reset();
}

}  // namespace
}  // namespace gpd::obs
