// E6 — Sec. 3.3: the general singular k-CNF algorithms versus naive lattice
// enumeration, and process-enumeration (k^m) versus chain covers (Π cⱼ).
//
// Expected shape: both Sec. 3.3 algorithms beat the lattice by orders of
// magnitude (their exponential is in the number of *clauses*, the lattice's
// in total events); the chain-cover variant never tries more combinations
// than process enumeration and wins when messages chain true events.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("E6 / Sec. 3.3 general singular k-CNF",
                "Unsatisfied predicates (worst case: full enumeration). "
                "combos = CPDHB invocations; lattice pays cuts instead.");

  Table table({"groups", "k", "events", "verdict", "lattice_cuts",
               "lattice_ms", "procEnum_combos", "procEnum_ms", "chain_combos",
               "chain_ms", "sat_ms", "speedup_vs_lattice"});
  Rng rng(2718);

  for (const int groups : {2, 3, 4, 5}) {
    for (const int events : {6, 10}) {
      GroupedComputationOptions opt;
      opt.groups = groups;
      opt.groupSize = 2;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.9;  // dense causality → many inconsistencies
      Rng local = rng.fork();
      const Computation comp = randomGroupedComputation(opt, local);
      VariableTrace trace(comp);
      // Sparse-but-present truth: every process contributes candidate events
      // so the enumerations run, but dense causality keeps witnesses rare.
      for (ProcessId p = 0; p < comp.processCount(); ++p) {
        std::vector<bool> values(comp.eventCount(p));
        for (std::size_t i = 0; i < values.size(); ++i) {
          values[i] = local.chance(0.12);
        }
        values[1 + local.index(values.size() - 1)] = true;
        trace.defineBool(p, "b", values);
      }
      CnfPredicate pred;
      for (int g = 0; g < groups; ++g) {
        pred.clauses.push_back(
            {{2 * g, "b", true}, {2 * g + 1, "b", true}});
      }
      const VectorClocks clocks(comp);

      // The lattice baseline is the whole point of the comparison, but its
      // state count is (events+1)^(2·groups); skip it once the grid bound
      // leaves the few-million range.
      double grid = 1;
      for (ProcessId p = 0; p < comp.processCount(); ++p) {
        grid *= comp.eventCount(p);
      }
      const bool runLattice = grid <= 1.2e7;
      bool latticeFound = false;
      std::uint64_t cuts = 0;
      double latticeMs = 0;
      if (runLattice) {
        latticeMs = bench::timeMs([&] {
          cuts = 0;
          latticeFound = false;
          lattice::explore(clocks, [&](const Cut& cut) {
            ++cuts;
            if (pred.holdsAtCut(trace, cut)) {
              latticeFound = true;
              return false;
            }
            return true;
          });
        });
      }

      detect::SingularCnfResult byProc;
      const double procMs = bench::timeMs([&] {
        byProc = detect::detectSingularByProcessEnumeration(clocks, trace, pred);
      });
      detect::SingularCnfResult byChain;
      const double chainMs = bench::timeMs([&] {
        byChain = detect::detectSingularByChainCover(clocks, trace, pred);
      });
      detect::SatEncodingResult bySat;
      const double satMs = bench::timeMs([&] {
        bySat = detect::detectSingularViaSat(clocks, trace, pred);
      });
      GPD_CHECK(byProc.found == byChain.found);
      GPD_CHECK(bySat.cut.has_value() == byChain.found);
      if (runLattice) GPD_CHECK(byChain.found == latticeFound);

      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.0fx",
                    latticeMs / std::max(1e-6, chainMs));
      table.row(groups, 2, events, byChain.found ? "found" : "absent",
                runLattice ? std::to_string(cuts) : std::string(">1e7"),
                runLattice ? bench::fmtMs(latticeMs) : std::string("-"),
                byProc.combinationsTried, bench::fmtMs(procMs),
                byChain.combinationsTried, bench::fmtMs(chainMs),
                bench::fmtMs(satMs),
                runLattice ? std::string(speedup) : std::string("inf"));
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: Sec. 3.3 combos stay ≤ k^m = 2^groups while "
               "lattice cuts grow with (events+1)^(2·groups); chain combos "
               "≤ process-enumeration combos.\n";
  return 0;
}
