// E8 + E10 — Theorems 4–7: exact-sum detection with |Δ| ≤ 1.
//
// E8: possibly(Σxᵢ = K) via the Theorem 7 reduction (two min-cut solves +
// an intermediate-value walk) against exhaustive lattice search. Expected
// shape: polynomial vs exponential, with identical verdicts.
// E10: definitely(Σxᵢ = K) via Theorem 7(2) against the direct
// lattice-definitely of the equality itself — verdicts must coincide.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("E8 / Thms 4-7 — exact sum, |Δ| ≤ 1",
                "possibly(Σx = K) on ±1 counters; theorem-7 vs lattice.");

  Rng rng(1618);
  Table e8({"procs", "events/proc", "K", "thm7_ms", "lattice_ms", "speedup",
            "verdicts_agree"});
  for (const int procs : {4, 6}) {
    for (const int events : {8, 16, 32, 64}) {
      RandomComputationOptions opt;
      opt.processes = procs;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.4;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomCounters(trace, "x", 0, 1, local);
      const VectorClocks clocks(comp);
      std::vector<SumTerm> terms;
      for (ProcessId p = 0; p < procs; ++p) terms.push_back({p, "x"});
      SumPredicate pred{terms, Relop::Equal, 2 + events / 8};

      std::optional<Cut> viaThm;
      const double thmMs = bench::timeMs(
          [&] { viaThm = detect::possiblySum(clocks, trace, pred); });

      std::string latticeMs = "-";
      std::string speedup = "-";
      std::string agree = "(baseline skipped)";
      if (procs <= 4 && events <= 16) {
        std::optional<Cut> viaLattice;
        const double lm = bench::timeMs([&] {
          viaLattice = detect::detectExactSumExhaustive(clocks, trace, pred);
        });
        latticeMs = bench::fmtMs(lm);
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.0fx", lm / std::max(1e-6, thmMs));
        speedup = buf;
        agree = viaThm.has_value() == viaLattice.has_value() ? "yes" : "NO";
      }
      e8.row(procs, events, pred.k, bench::fmtMs(thmMs), latticeMs, speedup,
             agree);
    }
  }
  e8.print(std::cout);

  std::cout << '\n';
  bench::banner("E10 / Thm 7(2) — definitely(Σx = K)",
                "Theorem 7(2) reduction vs direct lattice-definitely.");
  Table e10({"procs", "events/proc", "K", "thm7(2)_ms", "direct_ms",
             "verdicts_agree"});
  for (const int events : {4, 6, 8}) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = events;
    opt.messageProbability = 0.4;
    Rng local = rng.fork();
    const Computation comp = randomComputation(opt, local);
    VariableTrace trace(comp);
    defineRandomCounters(trace, "x", 0, 1, local);
    const VectorClocks clocks(comp);
    std::vector<SumTerm> terms;
    for (ProcessId p = 0; p < 3; ++p) terms.push_back({p, "x"});
    SumPredicate pred{terms, Relop::Equal, 1};

    bool viaThm = false;
    const double thmMs = bench::timeMs(
        [&] { viaThm = detect::definitelySum(clocks, trace, pred); });
    bool direct = false;
    const double directMs = bench::timeMs([&] {
      direct = lattice::definitely(clocks, [&](const Cut& c) {
        return pred.sumAtCut(trace, c) == pred.k;
      }).holds;
    });
    e10.row(3, events, pred.k, bench::fmtMs(thmMs), bench::fmtMs(directMs),
            viaThm == direct ? "yes" : "NO");
  }
  e10.print(std::cout);
  std::cout << "\nShape check: thm7_ms stays flat while lattice_ms explodes "
               "with events/proc; all verdict columns must read yes.\n";
  return 0;
}
