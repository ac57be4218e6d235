// A7 — computation slicing (the authors' follow-up line, built here as the
// extension feature): pay |E| linear-detector runs once, then answer
// membership and counting queries about the satisfying sublattice with no
// oracle calls at all.
//
// Expected shape: slice construction scales polynomially; per-query cost is
// microseconds and independent of how many cuts satisfy the predicate,
// while the lattice baseline pays a full enumeration per query.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("A7 / computation slicing (regular predicates)",
                "Conjunctive predicate over all processes; slice built once, "
                "then 100 membership queries.");

  Table table({"procs", "events/proc", "build_ms", "satisfying",
               "query100_ms", "direct100_ms", "latticeCount_ms",
               "count_agrees"});
  Rng rng(8888);
  for (const int procs : {3, 4}) {
    for (const int events : {4, 6, 8}) {
      RandomComputationOptions opt;
      opt.processes = procs;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.5;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.6, local);
      ConjunctivePredicate pred;
      for (ProcessId p = 0; p < procs; ++p) pred.terms.push_back(varTrue(p, "b"));
      const VectorClocks clocks(comp);

      detect::Slice slice;
      const double buildMs = bench::timeMs([&] {
        slice = detect::computeSlice(clocks, detect::conjunctiveOracle(trace, pred));
      });

      // Query workload: 100 random consistent cuts (random runs' prefixes).
      std::vector<Cut> queries;
      for (int i = 0; i < 100; ++i) {
        const auto run = graph::randomLinearExtension(comp.toDag(), local);
        Cut cut = initialCut(comp);
        const int steps = static_cast<int>(local.index(run.size()));
        int placed = 0;
        for (int node : run) {
          const EventId e = comp.event(node);
          cut.last[e.process] = e.index;
          if (++placed > steps) break;
        }
        // Round down to a consistent cut via the causal histories.
        Cut fixed = initialCut(comp);
        for (ProcessId p = 0; p < procs; ++p) {
          const EventId e{p, cut.last[p]};
          for (ProcessId q = 0; q < procs; ++q) {
            fixed.last[q] = std::max(fixed.last[q], clocks.clock(e, q));
          }
          fixed.last[p] = std::max(fixed.last[p], e.index);
        }
        queries.push_back(fixed);
      }

      int hits = 0;
      const double queryMs = bench::timeMs([&] {
        hits = 0;
        for (const Cut& q : queries) {
          hits += detect::sliceSatisfies(slice, clocks, q);
        }
      });

      int scanHits = 0;
      const double scanMs = bench::timeMs([&] {
        scanHits = 0;
        for (const Cut& q : queries) {
          scanHits += pred.holdsAtCut(trace, q);
        }
      });
      GPD_CHECK(hits == scanHits);

      std::uint64_t viaSlice = detect::countSatisfyingCuts(slice, clocks).count;
      std::uint64_t viaLattice = 0;
      const double latticeMs = bench::timeMs([&] {
        viaLattice = 0;
        lattice::explore(clocks, [&](const Cut& c) {
          viaLattice += pred.holdsAtCut(trace, c);
          return true;
        });
      });

      table.row(procs, events, bench::fmtMs(buildMs), viaSlice,
                bench::fmtMs(queryMs), bench::fmtMs(scanMs),
                bench::fmtMs(latticeMs),
                viaSlice == viaLattice ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: build cost polynomial; counting through the "
               "slice agrees with full enumeration on every row.\n";

  // A15 — slice-first as the detector's universal pre-pass, A/B benched
  // end to end. Two workloads over the same computations:
  //   regular:    non-singular CNF with a single-process clause per process
  //               (a regular skeleton) → the planner emits a slice-first
  //               step and the search runs inside the carved sublattice;
  //   nonregular: the same multi-process clauses with no single-process
  //               ones → no slice step exists, so enableSlicing(true) must
  //               cost nothing beyond the classifier (< 3% contract).
  // Both modes run under a budget far above the workload so every call
  // completes; progress.cutsVisited is the apples-to-apples work meter (for
  // the sliced mode it includes the slice build's own budgeted charges, so
  // the pre-pass cannot hide its cost). The SLICEBENCH lines feed the CI
  // gate: >= 10x cut reduction on regular, identical cut counts and < 3%
  // overhead (with runner slack) on nonregular, verdicts and witnesses
  // bit-identical throughout.
  std::cout << "\n";
  bench::banner("A15 / slice-first detection (Detector A/B)",
                "Same predicate, slicing on vs off; regular workloads search "
                "the sublattice, non-regular ones must not pay for the "
                "pre-pass.");

  Table ab({"workload", "seeds", "sliced_ms", "unsliced_ms", "sliced_cuts",
            "unsliced_cuts", "reduction", "identical"});
  Rng abRng(42424);
  for (const bool regular : {true, false}) {
    double msSliced = 0, msUnsliced = 0;
    std::uint64_t cutsSliced = 0, cutsUnsliced = 0;
    bool identical = true;
    int seeds = 0;
    for (int trial = 0; trial < 24; ++trial) {
      RandomComputationOptions opt;
      opt.processes = 4;
      opt.eventsPerProcess = 12;
      opt.messageProbability = 0.25;
      Rng local = abRng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      // Sparse skeleton variable: most trials have a tiny (often empty)
      // sublattice, which is exactly where slice-first pays — the unsliced
      // search must enumerate the whole cut lattice to conclude No, while
      // the pre-pass answers from the slice after O(|E|) build work.
      defineRandomBools(trace, "x", 0.05, local);
      defineRandomBools(trace, "b", 0.2, local);

      CnfPredicate cnf;
      if (regular) {
        for (ProcessId p = 0; p < opt.processes; ++p) {
          cnf.clauses.push_back({{p, "x", true}});
        }
      }
      cnf.clauses.push_back({{0, "b", true}, {1, "b", true}});
      cnf.clauses.push_back({{1, "b", true}, {2, "b", true}});
      cnf.clauses.push_back({{2, "b", true}, {3, "b", true}});
      cnf.clauses.push_back({{3, "b", true}, {0, "b", true}});

      detect::Detector sliced(trace);
      detect::Detector plain(trace);
      plain.enableSlicing(false);

      control::BudgetLimits limits;
      limits.maxCuts = 50'000'000;
      detect::Detection a, b;
      {
        // Warm both paths before the timed A/B runs; without this the
        // first-measured mode pays the cold instruction/data caches and the
        // overhead comparison reads a constant ordering bias.
        control::Budget w1(limits);
        control::Budget w2(limits);
        (void)sliced.possibly(cnf, w1);
        (void)plain.possibly(cnf, w2);
      }
      // Each timed sample batches 4 calls: single calls sit at the steady
      // clock's noise floor and the A/B tax reading swings with scheduler
      // jitter instead of the code under test.
      msSliced += bench::timeMs([&] {
        for (int rep = 0; rep < 4; ++rep) {
          control::Budget budget(limits);
          a = sliced.possibly(cnf, budget);
        }
      });
      msUnsliced += bench::timeMs([&] {
        for (int rep = 0; rep < 4; ++rep) {
          control::Budget budget(limits);
          b = plain.possibly(cnf, budget);
        }
      });
      cutsSliced += a.progress.cutsVisited;
      cutsUnsliced += b.progress.cutsVisited;
      identical = identical && a.outcome == b.outcome && a.witness == b.witness;
      GPD_CHECK(a.outcome != detect::Outcome::Unknown);
      GPD_CHECK(regular == a.slice.has_value());
      ++seeds;
    }
    const double reduction =
        cutsSliced == 0 ? 0.0
                        : static_cast<double>(cutsUnsliced) /
                              static_cast<double>(cutsSliced);
    const char* name = regular ? "regular" : "nonregular";
    ab.row(name, seeds, bench::fmtMs(msSliced), bench::fmtMs(msUnsliced),
           cutsSliced, cutsUnsliced,
           cutsSliced == 0 ? "inf" : bench::fmtMs(reduction) + "x",
           identical ? "yes" : "NO");
    GPD_CHECK(identical);
    std::printf("SLICEBENCH mode=sliced workload=%s ms=%.3f cuts=%llu\n", name,
                msSliced, static_cast<unsigned long long>(cutsSliced));
    std::printf("SLICEBENCH mode=unsliced workload=%s ms=%.3f cuts=%llu\n",
                name, msUnsliced,
                static_cast<unsigned long long>(cutsUnsliced));
  }
  ab.print(std::cout);
  std::cout << "\nShape check: regular rows search the sublattice (>= 10x "
               "fewer cuts); non-regular rows carry no slice step, so both "
               "modes do identical work.\n";
  return 0;
}
