// A5 — definitely(conjunctive): the Garg–Waldecker interval algorithm
// versus exhaustive lattice search.
//
// The interval algorithm decides the strong modality from pairwise causal
// tests on maximal true intervals — polynomial — while the lattice must
// explore every ¬φ-reachable cut. Verdicts must agree everywhere the
// baseline runs.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("A5 / definitely(conjunctive)",
                "Interval algorithm vs exhaustive lattice definitely; "
                "conjunction over all processes, random boolean traces.");

  Table table({"procs", "events/proc", "verdict", "intervals_ms",
               "lattice_ms", "speedup", "agree"});
  Rng rng(5151);
  for (const int procs : {3, 4, 6}) {
    for (const int events : {8, 16, 32, 64}) {
      RandomComputationOptions opt;
      opt.processes = procs;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.5;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.7, local);  // dense: definitely can hold
      ConjunctivePredicate pred;
      for (ProcessId p = 0; p < procs; ++p) pred.terms.push_back(varTrue(p, "b"));
      const VectorClocks clocks(comp);

      detect::DefinitelyResult res;
      const double intervalMs = bench::timeMs([&] {
        res = detect::definitelyConjunctive(clocks, trace, pred);
      });

      std::string latticeMs = "-";
      std::string speedup = "-";
      std::string agree = "(baseline skipped)";
      if (procs <= 4 && events <= 16) {
        bool direct = false;
        const double lm = bench::timeMs([&] {
          direct = lattice::definitely(clocks, [&](const Cut& cut) {
            return pred.holdsAtCut(trace, cut);
          }).holds;
        });
        latticeMs = bench::fmtMs(lm);
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.0fx",
                      lm / std::max(1e-6, intervalMs));
        speedup = buf;
        agree = direct == res.holds ? "yes" : "NO";
      }
      table.row(procs, events, res.holds ? "holds" : "fails",
                bench::fmtMs(intervalMs), latticeMs, speedup, agree);
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: interval_ms stays microseconds across the "
               "sweep; the lattice baseline is dropped beyond 4x16.\n";
  return 0;
}
