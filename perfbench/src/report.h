// Shared plumbing of the perfbench harness: the run options, sample
// summaries, the in-memory span log of the traced run, and the one result
// schema every workload prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace perfbench {

inline std::uint64_t nowNs() { return gpd::steadyNowNanos(); }
inline double msBetween(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;            // nproc: connections, replay pool workers
  std::string workDir = ".";  // where traces and manifests are written
};

// A bag of samples with the summaries the schema records.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void addAll(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double sum() const;
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  // Harrell–Davis quantile: a Beta-weighted mean of all the order
  // statistics. Over a few dozen samples it has a much smaller sampling
  // error than quantile(), which rests on the one or two samples next to q.
  double hdQuantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0); }
  double max() const { return quantile(1); }
  std::size_t countAbove(double limit) const {
    std::size_t n = 0;
    for (double x : v_) n += x > limit ? 1 : 0;
    return n;
  }

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
  void sort() const;
};

// One reported metric: its value plus the distribution it was taken from
// (n = 1 for a single measured number).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  Samples dist;  // underlying samples; empty means {value}
};

// ---- Traced run: spans kept in memory, written at exit ------------------

struct Span {
  const char* name = nullptr;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  int parent = -1;        // index into the log, -1 for a root
  std::uint64_t id = 0;   // shared by the spans of one query / one pump
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }
  int open(const char* name, std::uint64_t id);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: total self time (duration minus the part covered by its
  // children), in ns, and the count.
  std::map<std::string, std::pair<double, std::uint64_t>> selfTimes() const;
  // Sum of the children's durations over the sum of the roots' durations:
  // how much of the timed wall time the layer spans account for.
  double coverage() const;
  // Chrome trace-event JSON (the format gpd::obs exports for Perfetto).
  void writeChromeTrace(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op when the log is off.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t id)
      : log_(log), index_(log.on() ? log.open(name, id) : -1) {}
  ~Scope() {
    if (index_ >= 0) log_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// ---- Result -----------------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // printed in the final line
  std::vector<Metric> extra;    // detail only (diagnostics)
  std::map<std::string, double> layers;  // per-layer metrics (traced run)
  std::vector<std::string> problems;  // correctness failures, named
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
  void add(std::string name, std::string unit, double value,
           const Samples* dist = nullptr);
  void addExtra(std::string name, std::string unit, double value,
                const Samples* dist = nullptr);
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

// Peak resident set of this process, MiB.
double peakRssMib();

// Prints the detail record (run metadata + every metric's distribution)
// and, as the last line, the one-line JSON result.
void printResult(const RunOptions& o, const Result& r);

}  // namespace perfbench
