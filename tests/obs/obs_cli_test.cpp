// End-to-end `gpdtool` observability flags, exercised by spawning the real
// binary (path injected by CMake as GPDTOOL_PATH):
//
//   * detect --trace-out FILE.json writes a Chrome-trace JSON file that
//     covers plan dispatch → kernel spans, plus a flame summary on stdout;
//   * --stats -f json appends the metrics registry as JSON, including the
//     plan_vs_actual inventory entry;
//   * --stats (text) renders the sorted metric table.
//
// The span-presence assertions hold only when the library was built with
// observability on; under GPD_OBS_DISABLED the flags still work (the CLI
// surface never disappears) but the trace is empty and counters are zero,
// so those assertions are skipped.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "../temp_path.h"
#include "obs_test_util.h"

namespace gpd {
namespace {

// The suite's shared trace, generated once per test process.
std::string& tracePath() {
  static std::string path;
  return path;
}

std::string chromePath() { return testTempPath("trace.json"); }

std::string outPath() { return testTempPath("out.txt"); }

// Runs gpdtool with `args`, stdout+stderr captured to outPath(), and
// returns its exit code.
int runTool(const std::string& args) {
  const std::string cmd = std::string(GPDTOOL_PATH) + " " + args + " > " +
                          outPath() + " 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "gpdtool killed by signal: " << cmd;
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class ObsCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tracePath() = testTempPath("random.trace");
    ASSERT_EQ(runTool("generate random " + tracePath() + " 7"), 0);
  }
  static void TearDownTestSuite() {
    std::remove(tracePath().c_str());
    std::remove(outPath().c_str());
  }
  void TearDown() override {
    std::remove(outPath().c_str());
    std::remove(chromePath().c_str());
  }
};

TEST_F(ObsCliTest, TraceOutWritesLoadableChromeJson) {
  ASSERT_EQ(runTool("detect " + tracePath() + " conj --trace-out " +
                    chromePath() + " 0:b 1:b"),
            0);
  const std::string json = slurp(chromePath());
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::testing::isValidJson(json)) << json;
  EXPECT_NE(json.find(R"("name":"process_name","ph":"M")"),
            std::string::npos);
#ifndef GPD_OBS_DISABLED
  // Dispatch → kernel span coverage in the exported trace.
  EXPECT_NE(json.find("detect.query"), std::string::npos);
  EXPECT_NE(json.find("detect.cpdhb"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  // The CLI reports the export and prints the flame summary.
  const std::string out = slurp(outPath());
  EXPECT_NE(out.find("trace:"), std::string::npos);
  EXPECT_NE(out.find("detect.query"), std::string::npos);
#endif
}

TEST_F(ObsCliTest, StatsJsonCoversTheMetricInventory) {
  ASSERT_EQ(
      runTool("detect " + tracePath() + " cnf --stats -f json 0:b 1:!b"), 0);
  const std::string out = slurp(outPath());
  // The stats JSON object is the last line of output.
  const auto brace = out.find("\n{");
  ASSERT_NE(brace, std::string::npos) << out;
  const std::string json = out.substr(brace + 1);
  EXPECT_TRUE(obs::testing::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_vs_actual\""), std::string::npos);
  EXPECT_NE(json.find("\"cpdhb_invocations\""), std::string::npos);
#ifndef GPD_OBS_DISABLED
  EXPECT_EQ(json.find("\"detector_queries\": 0,"), std::string::npos)
      << "a detect run must count at least one detector query: " << json;
#endif
}

TEST_F(ObsCliTest, StatsTextRendersTheTable) {
  ASSERT_EQ(runTool("detect " + tracePath() + " sum --stats ge 0 x"), 0);
  const std::string out = slurp(outPath());
  EXPECT_NE(out.find("counter"), std::string::npos);
  EXPECT_NE(out.find("lattice_explorations"), std::string::npos);
  EXPECT_NE(out.find("histogram"), std::string::npos);
}

TEST_F(ObsCliTest, ObsFlagsComposeWithBudgetsAndExitCodes) {
  // A budget-tripped unknown still exits 3 with obs flags present, and the
  // trace file is still written (spans closed on the unwind).
  EXPECT_EQ(runTool("detect " + tracePath() + " cnf --max-cuts 1 --stats" +
                    " --trace-out " + chromePath() + " 0:b 0:!b"),
            3);
  const std::string json = slurp(chromePath());
  EXPECT_TRUE(obs::testing::isValidJson(json)) << json;
}

TEST_F(ObsCliTest, PlanAndMonitorAcceptObsFlags) {
  EXPECT_EQ(runTool("plan " + tracePath() + " --stats cnf 0:b 1:!b"), 0);
  // The online checker needs one conjunct per process (5 in this trace).
  EXPECT_EQ(
      runTool("monitor " + tracePath() + " --stats 0:b 1:b 2:b 3:b 4:b"), 0);
  const std::string out = slurp(outPath());
  EXPECT_NE(out.find("monitor_notifications"), std::string::npos);
}

TEST_F(ObsCliTest, ScrapeParsesAndPrettyPrintsAnExposition) {
  const std::string scrape = testTempPath("good.prom");
  {
    std::ofstream out(scrape);
    out << "# TYPE gpdd_pumps counter\n"
        << "gpdd_pumps_total 42\n"
        << "# TYPE gpdd_tenant_sessions gauge\n"
        << "gpdd_tenant_sessions{tenant=\"acme\"} 3\n"
        << "# TYPE gpdd_build_info gauge\n"
        << "gpdd_build_info{version=\"v1\",obs=\"on\"} 1\n"
        << "# EOF\n";
  }
  ASSERT_EQ(runTool("scrape " + scrape), 0);
  std::string out = slurp(outPath());
  EXPECT_NE(out.find("gpdd_pumps (counter)"), std::string::npos) << out;
  EXPECT_NE(out.find("gpdd_pumps_total 42"), std::string::npos) << out;
  EXPECT_NE(out.find("tenant=\"acme\""), std::string::npos) << out;
  EXPECT_NE(out.find("3 families, 3 samples"), std::string::npos) << out;

  ASSERT_EQ(runTool("scrape -f json " + scrape), 0);
  out = slurp(outPath());
  EXPECT_TRUE(obs::testing::isValidJson(out)) << out;
  EXPECT_NE(out.find("\"name\":\"gpdd_tenant_sessions\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"labels\":{\"tenant\":\"acme\"}"), std::string::npos)
      << out;
  std::remove(scrape.c_str());
}

TEST_F(ObsCliTest, ScrapeRejectsMalformedExpositionWithExitOne) {
  const std::string scrape = testTempPath("bad.prom");
  {
    std::ofstream out(scrape);
    // No # EOF terminator — a truncated scrape must not pass silently.
    out << "# TYPE gpdd_pumps counter\n"
        << "gpdd_pumps_total 42\n";
  }
  EXPECT_EQ(runTool("scrape " + scrape), 1);
  EXPECT_NE(slurp(outPath()).find("openmetrics"), std::string::npos);
  // A sample outside its family carries the line number in the error.
  {
    std::ofstream out(scrape);
    out << "# TYPE a gauge\nb 1\n# EOF\n";
  }
  EXPECT_EQ(runTool("scrape " + scrape), 1);
  EXPECT_NE(slurp(outPath()).find("line 2"), std::string::npos);
  // Missing file is bad input, not an internal error.
  EXPECT_EQ(runTool("scrape /nonexistent/telemetry.prom"), 1);
  std::remove(scrape.c_str());
}

}  // namespace
}  // namespace gpd
