#include "detect/singular_cnf.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "graph/chains.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

namespace {

// Runs the CPDHB scan over every selection of one chain per group, stopping
// at the first hit or when the budget trips. `options[j]` lists group j's
// candidate chains.
// Annotates the enumeration span and publishes per-run totals once the
// odometer stops, on every exit path (hit, exhausted, budget trip).
// Templated so it accepts the NullSpan stand-in under GPD_OBS_DISABLED.
template <typename SpanT>
void recordEnumeration(SpanT& span, const SingularCnfResult& result) {
  (void)result;
  span.attrInt("tried", static_cast<std::int64_t>(result.combinationsTried));
  span.attrInt("total", static_cast<std::int64_t>(result.combinationsTotal));
  span.attrStr("outcome", result.found      ? "found"
                          : result.complete ? "exhausted"
                                            : "budget-stopped");
  GPD_OBS_COUNTER_ADD("cpdhb_combinations", result.combinationsTried);
  GPD_OBS_HISTOGRAM("enumeration_combinations", result.combinationsTried);
}

// Parallel form of the odometer scan. Combinations are numbered by their
// linear odometer index (group 0 is the fastest digit, exactly the order
// the sequential scan walks), workers claim contiguous chunks of indices
// in increasing order, and a satisfying combination short-circuits the
// scan via the shared `bestIndex` watermark. Determinism contract:
//  - the reported witness is the LOWEST satisfying index, not the first
//    finisher's — every index below the eventual best is scanned (a chunk
//    is only abandoned for indices above the watermark, and the watermark
//    only ever holds genuine Yes indices);
//  - a combination budget caps the scanned prefix to
//    limit = min(total, remainingCombinations): exactly the indices the
//    sequential odometer would have charged before the CombinationLimit
//    latch. When limit < total and no witness was found, one extra charge
//    latches the same StopReason the sequential scan would have;
//  - on a hit the progress counters report the sequential prefix
//    (combinationsTried = winning index + 1, comparisons of the chunks at
//    or below it) and the charges workers made past it go back to the
//    budget.
// Count-based budgets therefore reproduce sequential results bit-for-bit,
// progress included; deadline/cancel budgets remain timing-dependent, as
// they already are sequentially.
template <typename SpanT>
void enumerateSelectionsParallel(
    SpanT& span, const VectorClocks& clocks,
    const std::vector<std::vector<Chain>>& options, control::Budget* budget,
    par::Pool& pool, SingularCnfResult& result) {
  const int m = static_cast<int>(options.size());
  const int workers = pool.threads();
  span.attrInt("threads", workers);
  const std::uint64_t limit = std::min(
      result.combinationsTotal,
      budget != nullptr ? budget->remainingCombinations() : UINT64_MAX);
  const std::uint64_t chunk = std::clamp<std::uint64_t>(
      limit / (static_cast<std::uint64_t>(workers) * 32), 1, 256);

  std::atomic<std::uint64_t> nextStart{0};
  std::atomic<std::uint64_t> bestIndex{UINT64_MAX};
  std::atomic<bool> stopped{false};
  struct WorkerOut {
    std::uint64_t tried = 0;
    // (first index, CPDHB comparisons) of every chunk this worker scanned.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunkComparisons;
    std::uint64_t foundIndex = UINT64_MAX;
    std::optional<Cut> cut;
    std::vector<EventId> witness;
  };
  std::vector<WorkerOut> outs(static_cast<std::size_t>(workers));

  pool.run([&](int w) {
    GPD_TRACE_SPAN_NAMED(wspan, "par.enumeration_worker");
    wspan.attrInt("worker", w);
    WorkerOut& out = outs[static_cast<std::size_t>(w)];
    std::vector<std::size_t> pick(m, 0);
    std::vector<Chain> chains(m);
    while (true) {
      const std::uint64_t start =
          nextStart.fetch_add(chunk, std::memory_order_relaxed);
      if (start >= limit) break;
      // Chunks are claimed in increasing order, so once the watermark is
      // below this chunk no later chunk can matter either.
      if (start > bestIndex.load(std::memory_order_relaxed)) break;
      if (stopped.load(std::memory_order_relaxed)) break;
      const std::uint64_t end = std::min(limit, start + chunk);
      // Decode the odometer digits at `start`, then step incrementally.
      std::uint64_t rem = start;
      for (int j = 0; j < m; ++j) {
        pick[static_cast<std::size_t>(j)] = rem % options[j].size();
        rem /= options[j].size();
      }
      bool abandon = false;
      std::uint64_t& comparisons =
          out.chunkComparisons.emplace_back(start, 0).second;
      for (std::uint64_t i = start; i < end; ++i) {
        if (i > bestIndex.load(std::memory_order_relaxed) ||
            stopped.load(std::memory_order_relaxed)) {
          abandon = true;
          break;
        }
        if (budget != nullptr && !budget->chargeCombination()) {
          stopped.store(true, std::memory_order_relaxed);
          abandon = true;
          break;
        }
        for (int j = 0; j < m; ++j) chains[j] = options[j][pick[j]];
        ++out.tried;
        ConjunctiveResult sub = findConsistentSelection(clocks, chains);
        comparisons += sub.comparisons;
        if (sub.found) {
          std::uint64_t cur = bestIndex.load(std::memory_order_relaxed);
          while (i < cur && !bestIndex.compare_exchange_weak(
                                cur, i, std::memory_order_relaxed)) {
          }
          // This worker scans ascending, so its first hit is its lowest;
          // everything above is moot for it.
          out.foundIndex = i;
          out.cut = sub.cut;
          out.witness = std::move(sub.witness);
          abandon = true;
          break;
        }
        // Advance the odometer one step.
        int j = 0;
        while (j < m && ++pick[j] >= options[j].size()) {
          pick[j] = 0;
          ++j;
        }
      }
      if (abandon) break;
    }
    wspan.attrInt("tried", static_cast<std::int64_t>(out.tried));
  });

  const std::uint64_t best = bestIndex.load(std::memory_order_relaxed);
  std::uint64_t tried = 0;
  for (const WorkerOut& out : outs) {
    tried += out.tried;
    // Chunks are disjoint, so every chunk starting at or below the winning
    // index ends at it or below and was scanned in full (the winner's own
    // chunk up to the hit) — exactly the sequential scan's comparisons.
    for (const auto& [start, comparisons] : out.chunkComparisons) {
      if (start <= best) result.comparisons += comparisons;
    }
  }
  result.combinationsTried = tried;
  if (best != UINT64_MAX) {
    result.combinationsTried = best + 1;
    if (budget != nullptr && tried > best + 1) {
      budget->refundCombinations(tried - (best + 1));
    }
    for (WorkerOut& out : outs) {
      if (out.foundIndex == best) {
        result.found = true;
        result.cut = out.cut;
        result.witness = std::move(out.witness);
        break;
      }
    }
  } else if (stopped.load(std::memory_order_relaxed)) {
    result.complete = false;  // a mid-scan charge failed (deadline/cancel)
  } else if (limit < result.combinationsTotal) {
    // The whole budgeted prefix was scanned without a hit; charge once more
    // so the budget latches CombinationLimit exactly like the sequential
    // scan's next charge would have.
    if (budget != nullptr) budget->chargeCombination();
    result.complete = false;
  }
  recordEnumeration(span, result);
}

SingularCnfResult enumerateSelections(const VectorClocks& clocks,
                                      const std::vector<std::vector<Chain>>& options,
                                      control::Budget* budget, par::Pool* pool) {
  GPD_TRACE_SPAN_NAMED(span, "detect.singular_enumeration");
  SingularCnfResult result;
  // The space size is Π |options[j]|, which overflows uint64 already at
  // 64 two-chain groups; saturate instead of wrapping (a wrap to zero would
  // read as "some clause never true" and fabricate an exact No).
  result.combinationsTotal = 1;
  for (const auto& opts : options) {
    if (opts.empty()) {
      result.combinationsTotal = 0;
      recordEnumeration(span, result);
      return result;  // some clause never true: exact No
    }
    if (result.combinationsTotal > UINT64_MAX / opts.size()) {
      result.combinationsTotal = UINT64_MAX;
    } else {
      result.combinationsTotal *= opts.size();
    }
  }

  // A saturated total breaks linear-index chunking (indices past UINT64_MAX
  // are unaddressable), so such spaces stay on the sequential odometer —
  // they are budget-stopped long before the distinction could matter.
  if (pool != nullptr && result.combinationsTotal != UINT64_MAX) {
    enumerateSelectionsParallel(span, clocks, options, budget, *pool, result);
    return result;
  }

  const int m = static_cast<int>(options.size());
  std::vector<std::size_t> pick(m, 0);
  std::vector<Chain> chains(m);
  while (true) {
    if (budget != nullptr && !budget->chargeCombination()) {
      result.complete = false;  // untried selections remain
      recordEnumeration(span, result);
      return result;
    }
    for (int j = 0; j < m; ++j) chains[j] = options[j][pick[j]];
    ++result.combinationsTried;
    ConjunctiveResult sub = findConsistentSelection(clocks, chains);
    result.comparisons += sub.comparisons;
    if (sub.found) {
      result.found = true;
      result.cut = sub.cut;
      result.witness = std::move(sub.witness);
      recordEnumeration(span, result);
      return result;
    }
    // Advance the odometer.
    int j = 0;
    while (j < m && ++pick[j] >= options[j].size()) {
      pick[j] = 0;
      ++j;
    }
    if (j == m) {
      recordEnumeration(span, result);
      return result;
    }
  }
}

}  // namespace

std::vector<std::vector<EventId>> clauseTrueEvents(
    const VariableTrace& trace, const CnfPredicate& pred,
    const std::vector<char>* admittedNode) {
  const Computation& comp = trace.computation();
  std::vector<std::vector<EventId>> out(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
      for (int i = 0; i < comp.eventCount(p); ++i) {
        if (admittedNode != nullptr && !(*admittedNode)[comp.node({p, i})]) {
          continue;  // sliced out: no satisfying cut passes through it
        }
        for (const BoolLiteral& l : pred.clauses[j]) {
          if (l.process == p && l.holds(trace, i)) {
            out[j].push_back({p, i});
            break;
          }
        }
      }
    }
  }
  return out;
}

SingularCnfResult detectSingularByProcessEnumeration(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget, par::Pool* pool,
    const std::vector<char>* admittedNode) {
  GPD_CHECK_MSG(pred.isSingular(), "predicate is not singular");
  GPD_TRACE_SPAN_NAMED(span, "detect.process_enumeration");
  span.attrInt("clauses", static_cast<std::int64_t>(pred.clauses.size()));
  const auto trueEvents = clauseTrueEvents(trace, pred, admittedNode);
  // Group j's options: one chain per hosting process (per-process true
  // events are totally ordered by the process order).
  std::vector<std::vector<Chain>> options(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
      Chain chain;
      for (const EventId& e : trueEvents[j]) {
        if (e.process == p) chain.events.push_back(e);
      }
      if (!chain.events.empty()) options[j].push_back(std::move(chain));
    }
  }
  return enumerateSelections(clocks, options, budget, pool);
}

std::vector<std::vector<Chain>> clauseChainCovers(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, const std::vector<char>* admittedNode) {
  GPD_TRACE_SPAN("detect.chain_cover");
  const auto trueEvents = clauseTrueEvents(trace, pred, admittedNode);
  std::vector<std::vector<Chain>> covers(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    const auto& events = trueEvents[j];
    const auto chains = graph::minimumChainCover(
        static_cast<int>(events.size()), [&](int a, int b) {
          return !(events[a] == events[b]) && clocks.leq(events[a], events[b]);
        });
    for (const auto& chain : chains) {
      Chain c;
      for (int idx : chain) c.events.push_back(events[idx]);
      covers[j].push_back(std::move(c));
    }
  }
  return covers;
}

SingularCnfResult detectSingularByChainCover(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget, par::Pool* pool,
    const std::vector<char>* admittedNode) {
  GPD_CHECK_MSG(pred.isSingular(), "predicate is not singular");
  GPD_TRACE_SPAN_NAMED(span, "detect.chain_cover_enumeration");
  span.attrInt("clauses", static_cast<std::int64_t>(pred.clauses.size()));
  return enumerateSelections(
      clocks, clauseChainCovers(clocks, trace, pred, admittedNode), budget,
      pool);
}

}  // namespace gpd::detect
