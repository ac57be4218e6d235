#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double Samples::sum() const {
  double s = 0;
  for (double x : v_) s += x;
  return s;
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  sort();
  const double pos = q * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::hdQuantile(double q) const {
  if (v_.size() < 2) return quantile(q);
  sort();
  const double n = static_cast<double>(v_.size());
  const double a = q * (n + 1) - 1, b = (1 - q) * (n + 1) - 1;
  // log of the Beta(q(n+1), (1-q)(n+1)) density, up to a constant; shifted
  // by its value at the mode so nothing underflows.
  auto logDensity = [&](double x) { return a * std::log(x) + b * std::log1p(-x); };
  const double top = logDensity(std::clamp(a / (a + b), 1e-9, 1 - 1e-9));
  // Weight of sample i: the density's mass over [i/n, (i+1)/n].
  constexpr int kSteps = 64;
  double total = 0, sum = 0;
  for (std::size_t i = 0; i < v_.size(); ++i) {
    double w = 0;
    for (int k = 0; k < kSteps; ++k) {
      const double x = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      w += std::exp(logDensity(x) - top);
    }
    total += w;
    sum += w * v_[i];
  }
  return sum / total;
}

int SpanLog::open(const char* name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.startNs = nowNs();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, std::pair<double, std::uint64_t>> SpanLog::selfTimes()
    const {
  std::vector<double> childNs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childNs[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.endNs - s.startNs);
    }
  }
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& slot = out[spans_[i].name];
    slot.first += static_cast<double>(spans_[i].endNs - spans_[i].startNs) -
                  childNs[i];
    ++slot.second;
  }
  return out;
}

double SpanLog::coverage() const {
  double roots = 0;
  double children = 0;
  for (const Span& s : spans_) {
    const double d = static_cast<double>(s.endNs - s.startNs);
    if (s.parent < 0) {
      roots += d;
    } else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
      children += d;
    }
  }
  return roots > 0 ? children / roots : 0;
}

void SpanLog::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write trace " << path << "\n";
    return;
  }
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().startNs;
  os << "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"perfbench\"}}";
  char buf[128];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.startNs - base) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3);
    os << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":" << buf
       << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << s.id
       << ",\"parent\":\""
       << (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                         : "")
       << "\"}}";
  }
  os << "]\n";
}

void Result::add(std::string name, std::string unit, double value,
                 const Samples* dist) {
  Metric m{std::move(name), std::move(unit), value, {}};
  if (dist != nullptr) m.dist = *dist;
  metrics.push_back(std::move(m));
}

void Result::addExtra(std::string name, std::string unit, double value,
                      const Samples* dist) {
  Metric m{std::move(name), std::move(unit), value, {}};
  if (dist != nullptr) m.dist = *dist;
  extra.push_back(std::move(m));
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string envOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void writeStats(std::ostream& os, const Metric& m) {
  Samples one;
  const Samples& d = m.dist.empty() ? (one.add(m.value), one) : m.dist;
  os << "{\"name\":" << quoted(m.name) << ",\"unit\":" << quoted(m.unit)
     << ",\"value\":" << num(m.value) << ",\"n\":" << d.size()
     << ",\"median\":" << num(d.median()) << ",\"q1\":" << num(d.quantile(0.25))
     << ",\"q3\":" << num(d.quantile(0.75)) << ",\"min\":" << num(d.min())
     << ",\"max\":" << num(d.max()) << "}";
}

}  // namespace

void printResult(const RunOptions& o, const Result& r) {
  std::ostringstream detail;
  detail << "{\"perfbench\":{\"workload\":" << quoted(o.workload)
         << ",\"seed\":" << o.seed << ",\"seconds\":" << num(o.seconds)
         << ",\"trace\":" << (o.trace ? 1 : 0)
         << ",\"git_rev\":" << quoted(envOr("PERFBENCH_GIT_REV", "unknown"))
         << ",\"src_digest\":"
         << quoted(envOr("PERFBENCH_SRC_DIGEST", "unknown"))
         << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
         << ",\"compiler\":" << quoted(PERFBENCH_CXX_ID)
         << ",\"sanitizer\":\"none\""
#ifdef GPD_OBS_DISABLED
         << ",\"obs\":\"disabled\""
#else
         << ",\"obs\":\"enabled\""
#endif
         << ",\"nproc\":" << o.threads
         << ",\"pool_threads\":" << (o.trace ? o.threads : 0)
         << ",\"correct\":" << (r.correct ? "true" : "false")
         << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
         << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    detail << (i ? "," : "") << quoted(r.problems[i]);
  }
  detail << "],\"notes\":{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    detail << (i ? "," : "") << quoted(r.notes[i].first) << ":"
           << quoted(r.notes[i].second);
  }
  detail << "},\"metrics\":[";
  bool first = true;
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) {
      if (!first) detail << ",";
      first = false;
      writeStats(detail, m);
    }
  }
  detail << "]}}";
  for (const std::string& p : r.problems) std::cerr << "FAIL: " << p << "\n";
  std::cout << detail.str() << "\n";

  std::cout << "{\"correct\":" << (r.correct ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? "," : "") << quoted(m.name) << ":{\"value\":"
              << num(m.value) << ",\"unit\":" << quoted(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
