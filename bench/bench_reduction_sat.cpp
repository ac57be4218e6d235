// E3 + E4 — Theorem 1 and Corollary 2 as experiments.
//
// E3: random formulas flow through the Figure 3 gadget; the detector's
// verdict must equal DPLL's on every instance, with detection paying the
// exponential enumeration exactly on unsatisfiable gadgets (the NP-hardness
// shape).
// E4: inequality-clause predicates (Corollary 2) lower to singular 2-CNF
// and are detected by the same machinery.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("E3 / Thm 1 — SAT via predicate detection",
                "Random mixed 2/3-CNF; gadget size, verdict agreement, and "
                "timing of detector vs DPLL.");

  Rng rng(777);
  Table e3({"vars", "clauses", "gadget_procs", "verdict", "detect_ms",
            "dpll_ms", "agree"});
  int agreeAll = 0;
  int total = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int vars = 3 + static_cast<int>(rng.index(4));
    const int clauses = 3 + static_cast<int>(rng.index(8));
    sat::Cnf cnf;
    cnf.numVars = vars;
    for (int i = 0; i < clauses; ++i) {
      const int width = rng.chance(0.7) ? 2 : 3;
      cnf.addClause(sat::randomKCnf(vars, 1, width, rng).clauses[0]);
    }
    const auto probe =
        reduction::simplifyForGadget(sat::toNonMonotone(cnf).formula);
    if (!probe.unsatisfiable && probe.formula.clauses.size() > 13) continue;

    std::optional<sat::Assignment> viaDetection;
    const double detectMs = bench::timeMs(
        [&] { viaDetection = reduction::solveSatViaDetection(cnf); });
    std::optional<sat::Assignment> viaDpll;
    const double dpllMs =
        bench::timeMs([&] { viaDpll = sat::solveDpll(cnf); });
    const bool agree = viaDetection.has_value() == viaDpll.has_value();
    agreeAll += agree;
    ++total;
    e3.row(vars, clauses, 2 * probe.formula.clauses.size(),
           viaDetection ? "SAT" : "UNSAT", bench::fmtMs(detectMs),
           bench::fmtMs(dpllMs), agree ? "yes" : "NO");
  }
  e3.print(std::cout);
  std::cout << "\nagreement: " << agreeAll << "/" << total
            << " (must be all)\n\n";

  bench::banner("E4 / Cor. 2 — inequality clauses via singular 2-CNF",
                "(x relop a) ∨ (y relop b) conjunctions lowered to derived "
                "boolean variables and detected; lattice cross-check.");
  Table e4({"events/proc", "clauses", "lowered_singular", "detect_ms",
            "lattice_ms", "agree"});
  for (const int events : {6, 10, 14}) {
    RandomComputationOptions opt;
    opt.processes = 6;
    opt.eventsPerProcess = events;
    opt.messageProbability = 0.4;
    Rng local = rng.fork();
    const Computation comp = randomComputation(opt, local);
    VariableTrace trace(comp);
    defineRandomCounters(trace, "v", 0, 2, local);
    IneqClausePredicate pred;
    const Relop ops[] = {Relop::Less, Relop::LessEq, Relop::Greater,
                         Relop::GreaterEq, Relop::NotEqual};
    for (int g = 0; g < 3; ++g) {
      pred.clauses.push_back(
          {{2 * g, "v", ops[local.index(5)], local.uniform(4, 7)},
           {2 * g + 1, "v", ops[local.index(5)], local.uniform(4, 7)}});
    }
    const CnfPredicate lowered = lowerToCnf(trace, pred);
    const VectorClocks clocks(comp);
    detect::SingularCnfResult res;
    const double detectMs = bench::timeMs([&] {
      res = detect::detectSingularByChainCover(clocks, trace, lowered);
    });
    bool latticeFound = false;
    const double latticeMs = bench::timeMs([&] {
      latticeFound = lattice::possibly(clocks, [&](const Cut& c) {
        return pred.holdsAtCut(trace, c);
      }).witness.has_value();
    });
    e4.row(events, pred.clauses.size(), lowered.isSingular() ? "yes" : "NO",
           bench::fmtMs(detectMs), bench::fmtMs(latticeMs),
           res.found == latticeFound ? "yes" : "NO");
  }
  e4.print(std::cout);
  return 0;
}
