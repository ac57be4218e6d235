// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads N] [--workdir DIR]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with spans on and reports the per-layer metrics, the
// tracing overhead, and the stage-coverage check, and writes the spans as
// Chrome trace-event JSON into --workdir. The last line of stdout is the
// one-line JSON result; the line before it is the detail record (run
// metadata and every metric's distribution). perfbench/run.py builds this
// binary and supplies --threads and --workdir.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

// Per-layer metrics, in BENCHMARK.json order. Every traced run reports all
// of them; a layer a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayers[] = {
    {"io.parse_ms", "ms"},
    {"io.parse_mib_per_s", "MiB/s"},
    {"clocks.build_ms", "ms"},
    {"analyze.plan_ms", "ms"},
    {"detect.query_ms", "ms"},
    {"lattice.cuts", "count"},
    {"lattice.ns_per_cut", "ns"},
    {"lattice.frontier_peak_mib", "MiB"},
    {"slice.explored_over_predicted", "ratio"},
    {"detect.combinations", "count"},
    {"detect.combinations_per_s", "1/s"},
    {"par.lattice_speedup", "x"},
    {"service.frame.decode_ns", "ns"},
    {"service.frame.encode_ns", "ns"},
    {"service.replica.capture_ns", "ns"},
    {"service.replica.bytes_per_pump", "B"},
    {"service.engine.submit_ns", "ns"},
    {"service.engine.pump_ms_p50", "ms"},
    {"service.engine.pump_ms_p99", "ms"},
    {"service.engine.frames_per_pump", "count"},
    {"service.engine.pump_us_per_frame", "us"},
    {"service.engine.busy_share", "ratio"},
    {"par.pump_speedup", "x"},
    {"service.manifest_log.store_ms_p50", "ms"},
    {"service.manifest_log.store_ms_p99", "ms"},
    {"service.manifest_log.bytes_per_store", "B"},
    {"service.engine.restore_ms", "ms"},
    {"service.engine.est_mib", "MiB"},
    {"monitor.nacks_per_knotif", "1/1000"},
    {"monitor.retransmit_useful_ratio", "ratio"},
    {"monitor.slice_resolved_ratio", "ratio"},
    {"loadgen.backlog_frames_p99", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"fail_ratio", "ratio"},
    {"slo_miss_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload detect-lattice|detect-wide|"
               "gpdd-churn|gpdd-resident --seed N --seconds S --trace 0|1\n"
               "                 [--threads N] [--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = v == "1";
      else if (a == "--threads") o.threads = std::stoi(v);
      else if (a == "--workdir") o.workDir = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (o.threads < 1 || o.seconds <= 0) return usage();

  perfbench::Result r;
  try {
    if (o.workload == "detect-lattice" || o.workload == "detect-wide") {
      r = perfbench::runOffline(o);
    } else if (o.workload == "gpdd-churn" || o.workload == "gpdd-resident") {
      r = perfbench::runOnline(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  if (o.trace) {
    // The traced run reports the per-layer metrics; its end-to-end numbers
    // stay in the detail record.
    std::vector<perfbench::Metric> e2e = std::move(r.metrics);
    r.metrics.clear();
    for (const LayerMetric& l : kLayers) {
      double v = 0;
      if (l.name == std::string("fail_ratio")) {
        v = static_cast<double>(r.failed) /
            static_cast<double>(r.attempted ? r.attempted : 1);
      } else if (auto it = r.layers.find(l.name); it != r.layers.end()) {
        v = it->second;
      }
      r.add(l.name, l.unit, v);
    }
    for (perfbench::Metric& m : e2e) r.extra.push_back(std::move(m));
  }
  perfbench::printResult(o, r);
  return r.correct ? 0 : 1;
}
