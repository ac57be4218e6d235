// E1 — the Figure 1 complexity landscape, measured.
//
// One row per (predicate family, algorithm): detection time as the trace
// grows. Families the paper classifies polynomial (conjunctive / CPDHB,
// receive-ordered singular k-CNF / CPDSC, relational inequalities /
// min-cut, bounded-Δ exact sum / Theorem 7, symmetric) must scale
// polynomially; the exhaustive lattice baseline — the only general method
// for the NP-complete families — must blow up.
#include "bench_util.h"

namespace {

using namespace gpd;

struct Workload {
  Computation comp;
  VariableTrace trace;

  Workload(Computation c, Rng& rng, double density)
      : comp(std::move(c)), trace(comp) {
    defineRandomBools(trace, "b", density, rng);
    defineRandomCounters(trace, "x", 0, 1, rng);
  }
};

}  // namespace

int main() {
  bench::banner("E1 / Fig. 1 landscape",
                "Detection time (ms) per predicate family and algorithm as "
                "events per process grow; n = 6 processes (3 groups of 2). "
                "lattice-cuts shows the state count exhaustive search pays.");

  Table table({"family", "algorithm", "events/proc", "ms", "result"});
  Rng rng(99);

  for (const int events : {8, 16, 32, 64, 128}) {
    GroupedComputationOptions gopt;
    gopt.groups = 3;
    gopt.groupSize = 2;
    gopt.eventsPerProcess = events;
    gopt.messageProbability = 0.3;
    Rng local = rng.fork();
    Workload w(randomGroupedComputation(gopt, local), local, 0.25);
    const VectorClocks clocks(w.comp);

    // Conjunctive — CPDHB (polynomial).
    ConjunctivePredicate conj;
    for (ProcessId p = 0; p < 6; ++p) conj.terms.push_back(varTrue(p, "b"));
    bool found = false;
    double ms = bench::timeMs([&] {
      found = detect::detectConjunctive(clocks, w.trace, conj).found;
    });
    table.row("conjunctive", "cpdhb", events, bench::fmtMs(ms),
              found ? "found" : "absent");

    // Singular 2-CNF, general — chain cover (exponential in clauses, fast
    // here: 3 clauses).
    CnfPredicate cnf;
    for (int g = 0; g < 3; ++g) {
      cnf.clauses.push_back(
          {{2 * g, "b", true}, {2 * g + 1, "b", true}});
    }
    ms = bench::timeMs([&] {
      found = detect::detectSingularByChainCover(clocks, w.trace, cnf).found;
    });
    table.row("singular 2-CNF", "chain-cover", events, bench::fmtMs(ms),
              found ? "found" : "absent");

    // Relational inequality — min-cut extrema (polynomial, arbitrary Δ).
    std::vector<SumTerm> terms;
    for (ProcessId p = 0; p < 6; ++p) terms.push_back({p, "x"});
    SumPredicate ge{terms, Relop::GreaterEq, 4};
    std::optional<Cut> cut;
    ms = bench::timeMs([&] { cut = detect::possiblySum(clocks, w.trace, ge); });
    table.row("sum >= K", "min-cut-extrema", events, bench::fmtMs(ms),
              cut ? "found" : "absent");

    // Bounded-Δ exact sum — Theorem 7 (polynomial).
    SumPredicate eq{terms, Relop::Equal, 3};
    ms = bench::timeMs([&] { cut = detect::possiblySum(clocks, w.trace, eq); });
    table.row("sum == K, |Δ|<=1", "theorem-7", events, bench::fmtMs(ms),
              cut ? "found" : "absent");

    // Symmetric — disjunction of exact sums (polynomial).
    const SymmetricPredicate sym = exclusiveOr(
        {{0, "b"}, {1, "b"}, {2, "b"}, {3, "b"}, {4, "b"}, {5, "b"}});
    ms = bench::timeMs([&] {
      cut = detect::possiblySymmetric(clocks, w.trace, sym);
    });
    table.row("symmetric (xor)", "exact-sum-disjunction", events,
              bench::fmtMs(ms), cut ? "found" : "absent");

    // Exhaustive lattice baseline — only on sizes where it terminates soon.
    if (events <= 16) {
      std::uint64_t cuts = 0;
      ms = bench::timeMs([&] {
        cuts = lattice::explore(clocks, [](const Cut&) { return true; })
                   .cutsVisited;
      });
      table.row("ANY (baseline)", "lattice-enumeration", events,
                bench::fmtMs(ms), std::to_string(cuts) + " cuts");
    } else {
      table.row("ANY (baseline)", "lattice-enumeration", events, "-",
                "skipped (state explosion)");
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: every paper-polynomial family scales "
               "smoothly; the lattice row is dropped past 16 events/proc "
               "because the cut count is already in the millions.\n";
  return 0;
}
