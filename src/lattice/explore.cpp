#include "lattice/explore.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::lattice {

namespace {

// One BFS level: its cuts as n contiguous ints each, in insertion order.
// Storage comes in chunks of at most 64 KiB holding a power-of-two number
// of cuts, so cut i is a shift and a mask away. Keeping every chunk below
// glibc's mmap threshold matters: freeing multi-MB buffers raises that
// threshold dynamically, and the heap then grows instead (higher RSS for
// the rest of the process). clear() keeps the chunks, so a BFS allocates
// its widest level once.
class LevelArena {
 public:
  explicit LevelArena(int n) : n_(static_cast<std::size_t>(n)) {
    const std::size_t stride = std::max<std::size_t>(n_, 1);
    while ((std::size_t{2} << shift_) * stride * sizeof(int) <= kChunkBytes) {
      ++shift_;
    }
    mask_ = (std::size_t{1} << shift_) - 1;
    chunkInts_ = (std::size_t{1} << shift_) * stride;
  }

  std::size_t size() const { return size_; }

  const int* operator[](std::size_t i) const {
    return chunks_[i >> shift_].get() + (i & mask_) * n_;
  }

  // Appends a copy of the n ints at `v`.
  void push(const int* v) {
    const std::size_t chunk = size_ >> shift_;
    if (chunk == chunks_.size()) chunks_.emplace_back(new int[chunkInts_]);
    std::copy_n(v, n_, chunks_[chunk].get() + (size_ & mask_) * n_);
    ++size_;
  }

  void clear() { size_ = 0; }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  std::size_t n_;
  int shift_ = 0;
  std::size_t mask_ = 0;
  std::size_t chunkInts_ = 0;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<int[]>> chunks_;
};

// First-occurrence dedup of a level under construction: open addressing
// (linear probing, load at most 1/2) over the cuts' FNV hash (hashCut, the
// hash of std::hash<Cut>). A slot holds a 32-bit mix of the hash, which
// places it and screens most mismatches, and the cut's arena position + 1
// (0 = empty).
class LevelIndex {
 public:
  // Empties the index and sizes it for about `expected` cuts.
  void reset(std::size_t expected) {
    std::size_t capacity = 16;
    while (capacity < 2 * expected) capacity <<= 1;
    slots_.assign(capacity, Slot{});
    count_ = 0;
  }

  // Appends the n ints at `v` to `arena` unless an equal cut is there.
  void insert(const int* v, std::size_t n, LevelArena& arena) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    const std::size_t h = hashCut(v, n);
    const auto tag =
        static_cast<std::uint32_t>((h * 0x9e3779b97f4a7c15ULL) >> 32);
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = tag & mask;
    for (; slots_[s].pos != 0; s = (s + 1) & mask) {
      if (slots_[s].tag == tag &&
          std::equal(v, v + n, arena[slots_[s].pos - 1])) {
        return;
      }
    }
    GPD_CHECK_MSG(arena.size() < UINT32_MAX, "lattice level too wide");
    arena.push(v);
    slots_[s] = Slot{tag, static_cast<std::uint32_t>(arena.size())};
    ++count_;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t pos = 0;
  };

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.pos == 0) continue;
      std::size_t s = slot.tag & mask;
      while (slots_[s].pos != 0) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

// One scanner of a level: its first-occurrence successors (in generation
// order), their index, the scratch cut handed to visit/admit, and how many
// cuts it charged.
struct Scanner {
  explicit Scanner(int n) : next(n), scratch(std::vector<int>(n, 0)) {}
  LevelArena next;
  LevelIndex index;
  Cut scratch;
  std::uint64_t visited = 0;
  std::uint64_t charged = 0;
};

// Cuts are charged to a budget in blocks of this many, one atomic claim
// each; the charges a stop leaves unused are given back.
constexpr std::uint64_t kChargeBlock = 64;

const char* toString(ExploreEnd end) {
  switch (end) {
    case ExploreEnd::Exhausted:
      return "exhausted";
    case ExploreEnd::VisitorStopped:
      return "visitor-stopped";
    case ExploreEnd::BudgetExhausted:
      return "budget-exhausted";
  }
  return "?";
}

// The one BFS behind explore(), possibly(), definitely() and
// latticeStats(). `stopAtTop` is definitely()'s goal test: the search ends
// (VisitorStopped) as soon as the final cut is generated, before it is
// charged or counted in the frontier.
ExploreResult bfs(const VectorClocks& clocks, const CutVisitor& visit,
                  const ExploreOptions& options, bool stopAtTop) {
  control::Budget* const budget = options.budget;
  par::Pool* const pool = options.pool;
  const CutAdmit* const admit = options.admit;
  GPD_TRACE_SPAN_NAMED(
      span, pool != nullptr ? "lattice.explore_par" : "lattice.explore");
  const int workers = pool != nullptr ? pool->threads() : 1;
  if (pool != nullptr) span.attrInt("threads", workers);
  const Computation& comp = clocks.computation();
  const int n = comp.processCount();
  const auto width = static_cast<std::size_t>(n);
  int topLevel = 0;
  for (ProcessId p = 0; p < n; ++p) topLevel += comp.eventCount(p) - 1;
  // Approximate live bytes of one stored cut (vector header + components):
  // the frontier charge model of the heap-vector store this arena replaced,
  // kept so frontier budgets trip at the same points.
  const std::uint64_t perCut = sizeof(Cut) + width * sizeof(int);
  ExploreResult result;
  // One exit path annotates and publishes (once per run, not per cut),
  // whichever way the BFS ends — including a budget/cancel unwind (the span
  // closes via RAII regardless).
  const auto finish = [&]() -> ExploreResult& {
    span.attrInt("cuts", static_cast<std::int64_t>(result.cutsVisited));
    span.attrStr("end", toString(result.end));
    GPD_OBS_COUNTER_ADD("lattice_explorations", 1);
    GPD_OBS_COUNTER_ADD("cuts_enumerated", result.cutsVisited);
    GPD_OBS_GAUGE_MAX("frontier_bytes_peak", result.peakFrontierBytes);
    GPD_OBS_GAUGE_MAX("frontier_cuts_peak", result.peakFrontierCuts);
    return result;
  };

  LevelArena level(n);
  LevelArena merged(n);
  LevelIndex mergeIndex;
  std::vector<Scanner> scanners;
  scanners.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) scanners.emplace_back(n);
  level.push(std::vector<int>(width, 0).data());  // the initial cut

  for (int depth = 0; level.size() > 0; ++depth) {
    const std::uint64_t size = level.size();
    ++result.levels;
    result.widestLevel = std::max(result.widestLevel, size);
    // Positions past `eligible` are the cuts a sequential scan would never
    // reach before its CutLimit latch.
    const std::uint64_t eligible = std::min<std::uint64_t>(
        size, budget != nullptr ? budget->remainingCuts() : UINT64_MAX);
    std::atomic<std::uint64_t> stopPos{UINT64_MAX};
    std::atomic<bool> budgetStop{false};
    const auto scan = [&](Scanner& wk, std::uint64_t begin, std::uint64_t end) {
      wk.next.clear();
      wk.index.reset(2 * (end - begin));
      Cut& cut = wk.scratch;
      std::uint64_t paidUntil = begin;
      for (std::uint64_t pos = begin; pos < end; ++pos) {
        // A stop at a lower position makes everything above it moot; the
        // watermark only ever holds genuine stops, so no position below the
        // eventual lowest one is skipped.
        if (pos > stopPos.load(std::memory_order_relaxed) ||
            budgetStop.load(std::memory_order_relaxed)) {
          return;
        }
        if (budget != nullptr && pos == paidUntil) {
          const std::uint64_t block = std::min(kChargeBlock, end - pos);
          if (!budget->chargeCuts(block)) {
            budgetStop.store(true, std::memory_order_relaxed);
            return;
          }
          paidUntil += block;
          wk.charged += block;
        }
        ++wk.visited;
        std::copy_n(level[pos], width, cut.last.begin());
        if (!visit(cut)) {
          std::uint64_t cur = stopPos.load(std::memory_order_relaxed);
          while (pos < cur && !stopPos.compare_exchange_weak(
                                  cur, pos, std::memory_order_relaxed)) {
          }
          return;
        }
        for (ProcessId p = 0; p < n; ++p) {
          if (cut.last[p] + 1 >= comp.eventCount(p) ||
              !clocks.enabled(p, cut)) {
            continue;
          }
          ++cut.last[p];
          if (admit == nullptr || (*admit)(p, cut)) {
            wk.index.insert(cut.last.data(), width, wk.next);
          }
          --cut.last[p];
        }
      }
    };
    if (pool == nullptr) {
      scan(scanners[0], 0, eligible);
    } else {
      pool->run([&](int w) {
        Scanner& wk = scanners[static_cast<std::size_t>(w)];
        const std::uint64_t begin = eligible * static_cast<std::uint64_t>(w) /
                                    static_cast<std::uint64_t>(workers);
        const std::uint64_t end = eligible *
                                  static_cast<std::uint64_t>(w + 1) /
                                  static_cast<std::uint64_t>(workers);
        if (begin == end) {
          wk.next.clear();
          return;
        }
        GPD_TRACE_SPAN_NAMED(wspan, "par.lattice_worker");
        wspan.attrInt("worker", w);
        scan(wk, begin, end);
      });
    }

    std::uint64_t visited = 0;
    std::uint64_t charged = 0;
    for (Scanner& wk : scanners) {
      visited += wk.visited;
      charged += wk.charged;
      wk.visited = wk.charged = 0;
    }
    // The sequential scan counts and charges the cuts up to the lowest
    // stop; charges made past it, or left unused in a block, go back.
    const std::uint64_t stop = stopPos.load(std::memory_order_relaxed);
    const std::uint64_t counted = stop != UINT64_MAX ? stop + 1 : visited;
    if (charged > counted) budget->refundCuts(charged - counted);
    result.cutsVisited += counted;
    if (stop != UINT64_MAX) {
      result.stoppedAt = Cut(std::vector<int>(level[stop], level[stop] + n));
      result.end = ExploreEnd::VisitorStopped;
      return finish();
    }
    if (budgetStop.load(std::memory_order_relaxed)) {
      result.end = ExploreEnd::BudgetExhausted;
      return finish();
    }
    if (eligible < size) {
      // The sequential scan's next charge would have latched CutLimit;
      // reproduce that latch so the reported StopReason matches.
      budget->chargeCut();
      result.end = ExploreEnd::BudgetExhausted;
      return finish();
    }
    // Ordered merge: slices are contiguous and ascending, so walking the
    // per-worker successors in worker order follows the sequential
    // generation order, and first-occurrence dedup yields exactly the
    // sequential next level. One worker's successors already are it.
    if (workers == 1) {
      std::swap(level, scanners[0].next);
    } else {
      std::size_t total = 0;
      for (const Scanner& wk : scanners) total += wk.next.size();
      merged.clear();
      mergeIndex.reset(total);
      for (const Scanner& wk : scanners) {
        for (std::size_t i = 0; i < wk.next.size(); ++i) {
          mergeIndex.insert(wk.next[i], width, merged);
        }
      }
      std::swap(level, merged);
    }
    if (stopAtTop && depth + 1 == topLevel && level.size() > 0) {
      result.end = ExploreEnd::VisitorStopped;  // the final cut was reached
      return finish();
    }
    // The live frontier: this level plus the next one, now built.
    const std::uint64_t liveCuts = size + level.size();
    result.peakFrontierCuts = std::max(result.peakFrontierCuts, liveCuts);
    result.peakFrontierBytes =
        std::max(result.peakFrontierBytes, liveCuts * perCut);
    if (budget != nullptr && !budget->noteFrontierBytes(liveCuts * perCut)) {
      result.end = ExploreEnd::BudgetExhausted;
      return finish();
    }
  }
  return finish();
}

}  // namespace

ExploreResult explore(const VectorClocks& clocks, const CutVisitor& visit,
                      const ExploreOptions& options) {
  return bfs(clocks, visit, options, /*stopAtTop=*/false);
}

CutSearchResult possibly(const VectorClocks& clocks, const CutPredicate& phi,
                         const ExploreOptions& options) {
  CutSearchResult result;
  result.explore = bfs(
      clocks, [&](const Cut& cut) { return !phi(cut); }, options,
      /*stopAtTop=*/false);
  result.witness = result.explore.stoppedAt;
  // Exact iff a witness surfaced or the whole lattice was examined.
  result.complete = result.witness.has_value() ||
                    result.explore.end == ExploreEnd::Exhausted;
  return result;
}

DefinitelyDecision definitely(const VectorClocks& clocks,
                              const CutPredicate& phi,
                              const ExploreOptions& options) {
  GPD_CHECK_MSG(options.admit == nullptr,
                "definitely() restricts the search to ¬φ cuts itself");
  DefinitelyDecision decision;
  const Computation& comp = clocks.computation();
  const Cut bottom = initialCut(comp);
  if (phi(bottom)) {  // every run starts at ⊥
    decision.holds = true;
    return decision;
  }
  if (bottom == finalCut(comp)) {
    decision.holds = false;
    return decision;
  }
  // A run avoids φ iff it is a monotone path of ¬φ-cuts from ⊥ to ⊤.
  const CutAdmit notPhi = [&](ProcessId, const Cut& cut) { return !phi(cut); };
  ExploreOptions avoiding = options;
  avoiding.admit = &notPhi;
  decision.explore = bfs(
      clocks, [](const Cut&) { return true; }, avoiding, /*stopAtTop=*/true);
  switch (decision.explore.end) {
    case ExploreEnd::Exhausted:  // no ¬φ path reaches ⊤
      decision.holds = true;
      break;
    case ExploreEnd::VisitorStopped:  // an all-¬φ run exists
      decision.holds = false;
      break;
    case ExploreEnd::BudgetExhausted:
      decision.decided = false;
      break;
  }
  return decision;
}

LatticeStats latticeStats(const VectorClocks& clocks,
                          const ExploreOptions& options) {
  const ExploreResult r =
      explore(clocks, [](const Cut&) { return true; }, options);
  LatticeStats stats;
  stats.cutCount = r.cutsVisited;
  stats.levels = r.levels;
  stats.maxWidth = r.widestLevel;
  stats.complete = r.end == ExploreEnd::Exhausted;
  return stats;
}

}  // namespace gpd::lattice
