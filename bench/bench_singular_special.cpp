// E5 — Sec. 3.2: the polynomial special case (receive-/send-ordered
// computations) scales smoothly where the general problem is NP-complete.
//
// Expected shape: CPDSC runtime grows polynomially with the trace length
// for both disciplines, stays close to the general chain-cover algorithm on
// these instances (which enumerates few combinations anyway), and the
// exhaustive lattice baseline departs exponentially.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("E5 / Sec. 3.2 receive-/send-ordered special case",
                "Singular 2-CNF detection on disciplined computations; "
                "3 groups of 2 processes.");

  Table table({"discipline", "events/proc", "cpdsc_ms", "chainCover_ms",
               "lattice_ms", "verdicts_agree"});
  Rng rng(31415);

  for (const auto discipline : {OrderingDiscipline::ReceiveOrdered,
                                OrderingDiscipline::SendOrdered}) {
    const char* name =
        discipline == OrderingDiscipline::ReceiveOrdered ? "receive" : "send";
    for (const int events : {8, 16, 32, 64}) {
      GroupedComputationOptions opt;
      opt.groups = 3;
      opt.groupSize = 2;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.4;
      opt.discipline = discipline;
      Rng local = rng.fork();
      const Computation comp = randomGroupedComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.1, local);
      CnfPredicate pred;
      for (int g = 0; g < 3; ++g) {
        pred.clauses.push_back(
            {{2 * g, "b", true}, {2 * g + 1, "b", true}});
      }
      const VectorClocks clocks(comp);

      detect::CpdscResult special;
      const double cpdscMs = bench::timeMs([&] {
        special = detect::detectSingularSpecialCase(clocks, trace, pred);
      });
      GPD_CHECK(special.applicable());

      detect::SingularCnfResult general;
      const double chainMs = bench::timeMs([&] {
        general = detect::detectSingularByChainCover(clocks, trace, pred);
      });

      std::string latticeMs = "-";
      bool agree = special.found() == general.found;
      if (events <= 16) {
        bool latticeFound = false;
        latticeMs = bench::fmtMs(bench::timeMs([&] {
          latticeFound = lattice::possibly(clocks, [&](const Cut& c) {
            return pred.holdsAtCut(trace, c);
          }).witness.has_value();
        }));
        agree = agree && latticeFound == special.found();
      }
      table.row(name, events, bench::fmtMs(cpdscMs), bench::fmtMs(chainMs),
                latticeMs, agree ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: cpdsc_ms grows polynomially with events/proc "
               "under both disciplines; the lattice column is omitted past "
               "16 events/proc.\n";
  return 0;
}
