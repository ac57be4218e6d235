// detect-lattice and detect-wide: a closed loop of offline `detect` queries,
// each going trace text → io::readTrace → VectorClocks (Detector
// construction) → analyze::plan* → Detector::possibly/definitely, the path
// `gpdtool detect` takes.
//
// Queries run inline. On a shared machine the pool's per-level hand-offs
// make pooled lattice searches swing by half between runs with the host's
// scheduling, while inline ones hold steady (and were no slower on 4
// vCPUs). The traced run replays a sample of lattice queries on a
// par::Pool of nproc, which checks the sequential ≡ pooled contract and
// gives par.lattice_speedup.
//
// Inputs come from the seed alone. Every verdict is checked against an
// answer fixed before the timed loop by a route that does not use the
// Detector: an exhaustive enumerator written here (lattice workload), the
// SAT encoding + DPLL (singular CNF and conjunctive queries), or the
// construction of the trace itself (sums, symmetric and `definitely`
// queries on wide traces). Every Yes witness is re-checked for consistency
// under VectorClocks and for the predicate holding on it.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/plan.h"
#include "detect/detector.h"
#include "detect/sat_encoding.h"
#include "io/trace_io.h"
#include "obs/metrics.h"
#include "par/pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gpd::Cut;
using gpd::VectorClocks;

// ---- Trace model --------------------------------------------------------

struct Model {
  int n = 0;
  std::vector<int> len;                  // events per process, initial included
  std::vector<std::array<int, 4>> msgs;  // send p, send i, receive p, receive i
  std::vector<std::string> names;
  std::vector<std::vector<std::vector<std::int64_t>>> vals;  // [var][p][i]

  int var(const std::string& name) {
    names.push_back(name);
    vals.emplace_back(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) vals.back()[p].assign(len[p], 0);
    return static_cast<int>(names.size()) - 1;
  }

  std::string text() const {
    std::string s = "gpd-trace 1\nprocesses " + std::to_string(n) + "\nevents";
    for (int l : len) s += " " + std::to_string(l);
    s += "\n";
    for (const auto& m : msgs) {
      s += "message " + std::to_string(m[0]) + " " + std::to_string(m[1]) +
           " " + std::to_string(m[2]) + " " + std::to_string(m[3]) + "\n";
    }
    for (std::size_t v = 0; v < names.size(); ++v) {
      for (int p = 0; p < n; ++p) {
        s += "var " + std::to_string(p) + " " + names[v];
        for (std::int64_t x : vals[v][p]) {
          s += ' ';
          s += std::to_string(x);
        }
        s += "\n";
      }
    }
    return s + "end\n";
  }
};

// ---- Independent lattice enumerator ---------------------------------------
//
// Visits every consistent cut exactly once, in lexicographic order (process
// 0 outermost). need[p][k][q] is the least index process q must have reached
// when process p has reached index k (the sends of the messages p received up
// to k); it is monotone in k, which lets the enumeration prune.
class Oracle {
 public:
  explicit Oracle(const Model& m) : n_(m.n), len_(m.len), need_(m.n) {
    for (int p = 0; p < n_; ++p) {
      need_[p].assign(static_cast<std::size_t>(len_[p]) * n_, 0);
    }
    for (const auto& msg : m.msgs) {
      int& slot = need_[msg[2]][static_cast<std::size_t>(msg[3]) * n_ + msg[0]];
      slot = std::max(slot, msg[1]);
    }
    for (int p = 0; p < n_; ++p) {
      for (int k = 1; k < len_[p]; ++k) {
        for (int q = 0; q < n_; ++q) {
          int& cur = need_[p][static_cast<std::size_t>(k) * n_ + q];
          cur = std::max(cur, need_[p][static_cast<std::size_t>(k - 1) * n_ + q]);
        }
      }
    }
  }

  template <class Visit>
  void forEach(Visit&& visit) const {
    std::vector<int> cut(static_cast<std::size_t>(n_), 0);
    std::vector<int> lb(static_cast<std::size_t>(n_) * (n_ + 1), 0);
    rec(0, cut.data(), lb.data(), visit);
  }

  std::uint64_t count() const {
    std::uint64_t c = 0;
    forEach([&](const int*) { ++c; });
    return c;
  }

  struct Answer {
    std::uint64_t cuts = 0;
    bool possibly = false;
    int minLevel = -1;  // lowest level of a satisfying cut
    bool definitely = false;
  };

  // possibly: some consistent cut satisfies phi. definitely: no path of
  // consistent non-phi cuts leads from the initial to the final cut.
  Answer solve(const std::function<bool(const int*)>& phi,
               bool wantDefinitely) const {
    Answer a;
    std::vector<std::uint64_t> stride(static_cast<std::size_t>(n_), 1);
    for (int p = n_ - 2; p >= 0; --p) stride[p] = stride[p + 1] * len_[p + 1];
    const std::uint64_t space = stride[0] * len_[0];
    std::vector<char> reach(wantDefinitely ? space : 0, 0);
    forEach([&](const int* c) {
      ++a.cuts;
      const bool f = phi(c);
      int level = 0;
      std::uint64_t idx = 0;
      for (int p = 0; p < n_; ++p) {
        level += c[p];
        idx += stride[p] * c[p];
      }
      if (f) {
        a.possibly = true;
        if (a.minLevel < 0 || level < a.minLevel) a.minLevel = level;
      }
      if (wantDefinitely && !f) {
        bool r = idx == 0;
        for (int p = 0; p < n_ && !r; ++p) {
          r = c[p] > 0 && reach[idx - stride[p]] != 0;
        }
        reach[idx] = r ? 1 : 0;
      }
    });
    if (wantDefinitely) a.definitely = reach[space - 1] == 0;
    return a;
  }

 private:
  template <class Visit>
  void rec(int d, int* c, int* lb, Visit& visit) const {
    if (d == n_) {
      visit(static_cast<const int*>(c));
      return;
    }
    const int* lbd = lb + static_cast<std::size_t>(d) * n_;
    int* lbn = lb + static_cast<std::size_t>(d + 1) * n_;
    for (int v = lbd[d]; v < len_[d]; ++v) {
      const int* need = &need_[d][static_cast<std::size_t>(v) * n_];
      bool ok = true;
      for (int p = 0; p < d && ok; ++p) ok = need[p] <= c[p];
      if (!ok) break;  // need only grows with v
      c[d] = v;
      for (int q = d + 1; q < n_; ++q) lbn[q] = std::max(lbd[q], need[q]);
      rec(d + 1, c, lb, visit);
    }
  }

  int n_;
  std::vector<int> len_;
  std::vector<std::vector<int>> need_;
};

// ---- Queries --------------------------------------------------------------

enum class Kind { Conj, Cnf, Sum, Sym };

struct Query {
  std::string label;
  std::string text;
  Kind kind = Kind::Cnf;
  bool definitely = false;
  gpd::ConjunctivePredicate conj;
  gpd::CnfPredicate cnf;
  gpd::SumPredicate sum;
  gpd::SymmetricPredicate sym;
  bool expected = false;
  std::uint64_t oracleCuts = 0;  // lattice size (lattice workload)
  // Parsed once before the timed loop, for witness re-verification;
  // shared by the queries of one trace.
  struct Parsed {
    gpd::io::TraceFile file;
    std::unique_ptr<VectorClocks> clocks;
  };
  std::shared_ptr<const Parsed> parsed;
};

gpd::BoolLiteral lit(int p, const std::string& var, bool positive = true) {
  gpd::BoolLiteral l;
  l.process = p;
  l.var = var;
  l.positive = positive;
  return l;
}

std::function<bool(const int*)> cnfPhi(const Model& m,
                                       const gpd::CnfPredicate& pred) {
  struct L {
    int p, v;
    bool pos;
  };
  std::vector<std::vector<L>> cls;
  for (const auto& clause : pred.clauses) {
    cls.emplace_back();
    for (const auto& l : clause) {
      const int v = static_cast<int>(
          std::find(m.names.begin(), m.names.end(), l.var) - m.names.begin());
      cls.back().push_back({l.process, v, l.positive});
    }
  }
  return [&m, cls](const int* c) {
    for (const auto& clause : cls) {
      bool any = false;
      for (const L& l : clause) {
        any = any || ((m.vals[l.v][l.p][c[l.p]] != 0) == l.pos);
      }
      if (!any) return false;
    }
    return true;
  };
}

// Chooses per-process event counts whose product is about `target`.
std::vector<int> eventsFor(int n, double target) {
  std::vector<int> e(static_cast<std::size_t>(n),
                     std::max(6, static_cast<int>(std::pow(target, 1.0 / n)) - 2));
  auto product = [&] {
    double x = 1;
    for (int v : e) x *= v + 1;
    return x;
  };
  for (int p = 0; product() < target; p = (p + 1) % n) ++e[p];
  return e;
}

void addRandomMessages(Model& m, Rand& r, int count) {
  std::set<std::array<int, 4>> seen(m.msgs.begin(), m.msgs.end());
  for (int k = 0; k < count; ++k) {
    const int p = r.range(0, m.n - 1);
    int q = r.range(0, m.n - 2);
    if (q >= p) ++q;
    const int top = std::min(m.len[p], m.len[q]) - 2;
    if (top < 1) continue;
    const int i = r.range(1, top);
    const int j = r.range(i + 1, m.len[q] - 1);
    if (seen.insert({p, i, q, j}).second) m.msgs.push_back({p, i, q, j});
  }
}

// The four lattice query shapes. All end in the exhaustive lattice (or the
// slice-restricted one), and Yes answers sit near the top of the lattice so
// the BFS covers most of it either way.
enum class LShape { CnfPossibly, CnfDefinitely, SumExact, SliceCnf };

Query latticeQuery(Rand& r, LShape shape, bool yes, double target, int slot) {
  const int n = target < 3e4 ? 4 : target < 3e5 ? 5 : 6;
  Query q;
  Model m;
  double inflation = 1.0;
  for (int attempt = 0; attempt < 24; ++attempt) {
    Rand g(r.next());
    m = Model{};
    m.n = n;
    const std::vector<int> e = eventsFor(n, target * inflation);
    for (int p = 0; p < n; ++p) m.len.push_back(e[p] + 1);
    auto late = [&](int p) { return std::max(1, e[p] / 10); };
    q = Query{};
    q.definitely = shape == LShape::CnfDefinitely;
    if (shape == LShape::SumExact) {
      q.kind = Kind::Sum;
      const int x = m.var("x");
      std::int64_t final = 0;
      for (int p = 0; p < n; ++p) {
        for (int i = 1; i <= e[p]; ++i) {
          const int step = yes ? g.range(2, 3) : 2 * g.range(1, 2);
          m.vals[x][p][i] = m.vals[x][p][i - 1] + step;
        }
      }
      if (yes) {  // the only satisfying cut is the final cut minus p0's last event
        auto& v0 = m.vals[x][0];
        v0[e[0]] = v0[e[0] - 1] + 1;
      }
      for (int p = 0; p < n; ++p) final += m.vals[x][p][e[p]];
      q.sum.relop = gpd::Relop::Equal;
      q.sum.k = yes ? final - 1 : ((final / 2) | 1);  // all sums even: odd K is No
      for (int p = 0; p < n; ++p) q.sum.terms.push_back({p, "x"});
    } else {
      q.kind = Kind::Cnf;
      const int a = m.var("a");
      const bool slice = shape == LShape::SliceCnf;
      const int s = slice ? m.var("s") : -1;
      for (int p = 0; p < n; ++p) {
        const int L = late(p);
        bool early = !yes && p < 2 && shape != LShape::CnfDefinitely;
        if (shape == LShape::CnfDefinitely && !yes) {
          const int mid = e[p] / 2;
          for (int i = mid - L / 2; i <= mid + L / 2; ++i) m.vals[a][p][i] = 1;
        } else if (early) {
          for (int i = 1; i <= L; ++i) m.vals[a][p][i] = 1;
        } else {
          for (int i = e[p] - L + 1; i <= e[p]; ++i) m.vals[a][p][i] = 1;
        }
        if (slice && p < 2) {
          for (int i = e[p] / 2; i <= e[p]; ++i) m.vals[s][p][i] = 1;
        }
      }
      if (shape == LShape::CnfPossibly && !yes) {
        // Processes 0 and 1 may only be true early, and every other process
        // can only reach its late region after 0 and 1 have left theirs.
        for (int p = 0; p < 2; ++p) {
          for (int o = 2; o < n; ++o) {
            m.msgs.push_back({p, late(p) + 1, o, e[o] - late(o) + 1});
          }
        }
      }
      if (slice) {
        q.cnf.clauses.push_back({lit(0, "s")});
        q.cnf.clauses.push_back({lit(1, "s")});
      }
      // Every pair must have a true member: n-1 processes true at once.
      for (int p = 0; p < n; ++p) {
        for (int o = p + 1; o < n; ++o) {
          q.cnf.clauses.push_back({lit(p, "a"), lit(o, "a")});
        }
      }
    }
    addRandomMessages(m, g, n);
    const std::uint64_t cuts = Oracle(m).count();
    const double ratio = static_cast<double>(cuts) / target;
    if (ratio > 0.96 && ratio < 1.04) break;
    inflation /= ratio;
  }
  const Oracle oracle(m);
  const Oracle::Answer ans =
      q.kind == Kind::Sum
          ? oracle.solve(
                [&m, k = q.sum.k](const int* c) {
                  std::int64_t t = 0;
                  for (int p = 0; p < m.n; ++p) t += m.vals[0][p][c[p]];
                  return t == k;
                },
                false)
          : oracle.solve(cnfPhi(m, q.cnf), q.definitely);
  q.expected = q.definitely ? ans.definitely : ans.possibly;
  q.oracleCuts = ans.cuts;
  static const char* kShapeNames[] = {"cnf-possibly", "cnf-definitely",
                                      "sum-exact", "slice-cnf"};
  q.label = std::string(kShapeNames[static_cast<int>(shape)]) + "#" +
            std::to_string(slot) + "(" + std::to_string(ans.cuts) + " cuts)";
  q.text = m.text();
  return q;
}

std::vector<Query> latticeQueries(Rand& r) {
  // Sizes from 1e4 to 5e5 cuts, denser at the small end (log size grows
  // with the square of the slot), so that a run repeats even the largest
  // queries several times; the shape of each size slot is fixed so every
  // seed gets the same cost profile.
  constexpr int kQueries = 40;
  static const LShape kPattern[20] = {
      LShape::CnfPossibly, LShape::CnfDefinitely, LShape::SumExact,
      LShape::CnfPossibly, LShape::SliceCnf,      LShape::CnfDefinitely,
      LShape::CnfPossibly, LShape::SumExact,      LShape::CnfPossibly,
      LShape::CnfDefinitely, LShape::CnfPossibly, LShape::SliceCnf,
      LShape::SumExact,    LShape::CnfPossibly,   LShape::CnfDefinitely,
      LShape::CnfPossibly, LShape::SumExact,      LShape::SliceCnf,
      LShape::CnfPossibly, LShape::CnfDefinitely};
  std::vector<Query> out;
  int seen[4] = {0, 0, 0, 0};
  for (int i = 0; i < kQueries; ++i) {
    const double u = static_cast<double>(i) / (kQueries - 1);
    const double target = std::pow(10.0, 4.0 + 1.7 * u * u);
    const LShape shape = kPattern[i % 20];
    const bool yes = (seen[static_cast<int>(shape)]++ % 2) == 0;
    out.push_back(latticeQuery(r, shape, yes, target, i));
  }
  return out;
}

// ---- Wide traces ------------------------------------------------------------
//
// Tens of processes, thousands of events each, dense messages, simulated in
// global step order (so the computation is acyclic). Processes p % 4 == 3
// never receive, which makes clause groups pairing them receive-ordered.
// Midway, a barrier (members send to a coordinator, which then releases
// them) gives `definitely(conj)` a Yes by construction.
struct Wide {
  Model m;
  std::vector<int> barrier;  // coordinator first
};

bool quiet(int p) { return p % 4 == 3; }

Wide wideTrace(Rand& r, int P, int E) {
  Wide w;
  Model& m = w.m;
  m.n = P;
  m.len.assign(P, E + 1);
  std::vector<int> next(static_cast<std::size_t>(P), 1);  // next event index
  std::vector<std::vector<std::pair<int, int>>> pending(static_cast<std::size_t>(P));
  const int a = m.var("a");
  const int x = m.var("x");
  const int b = m.var("b");
  const int c = m.var("c");
  m.var("z");  // never true
  std::vector<std::array<int, 2>> truthA;  // barrier a-ranges, applied later
  for (int k = 0; k < 8; ++k) w.barrier.push_back(4 * (k / 3) + (k % 3));
  auto send = [&](int p, int i, int q) { pending[q].push_back({p, i}); };
  auto receive = [&](int p, int i, bool& did) {
    if (pending[p].empty()) return;
    const auto [sp, si] = pending[p].front();
    pending[p].erase(pending[p].begin());
    m.msgs.push_back({sp, si, p, i});
    did = true;
  };
  long total = static_cast<long>(P) * E;
  const long barrierAt = total / 2;
  for (long step = 0; step < total;) {
    if (step == barrierAt) {
      const int coord = w.barrier[0];
      std::vector<int> sendIdx(w.barrier.size());
      for (std::size_t k = 1; k < w.barrier.size(); ++k) {
        const int p = w.barrier[k];
        sendIdx[k] = next[p]++;
        m.msgs.push_back({p, sendIdx[k], coord, next[coord]++});
        step += 2;
      }
      const int gathered = next[coord] - 1;
      const int firstRelease = next[coord];
      for (std::size_t k = 1; k < w.barrier.size(); ++k) {
        const int p = w.barrier[k];
        const int ri = next[p]++;
        m.msgs.push_back({coord, next[coord]++, p, ri});
        step += 2;
        truthA.push_back({p, sendIdx[k]});
        truthA.push_back({p, -(ri - 1)});
      }
      truthA.push_back({coord, gathered});
      truthA.push_back({coord, -(firstRelease - 1)});
      continue;
    }
    int p = r.range(0, P - 1);
    while (next[p] > E) p = (p + 1) % P;
    const int i = next[p]++;
    ++step;
    bool did = false;
    if (!quiet(p) && r.chance(0.5)) receive(p, i, did);
    if (!did && r.chance(0.35)) {
      int q = r.range(0, P - 2);
      if (q >= p) ++q;
      if (!quiet(q)) send(p, i, q);
    }
  }
  for (int p = 0; p < P; ++p) {
    auto& va = m.vals[a][p];
    auto& vx = m.vals[x][p];
    auto& vb = m.vals[b][p];
    auto& vc = m.vals[c][p];
    vx[0] = r.range(0, 4);
    vb[0] = r.range(0, 1);
    for (int i = 1; i <= E; ++i) {
      va[i] = r.chance(0.01) ? 1 : 0;
      vc[i] = r.chance(0.015) ? 1 : 0;
      vx[i] = vx[i - 1] + (r.chance(0.3) ? (r.chance(0.5) ? 1 : -1) : 0);
      vb[i] = r.chance(0.02) ? 1 - vb[i - 1] : vb[i - 1];
    }
  }
  for (std::size_t k = 0; k < truthA.size(); k += 2) {
    const int p = truthA[k][0];
    for (int i = truthA[k][1]; i <= -truthA[k + 1][1]; ++i) m.vals[a][p][i] = 1;
  }
  return w;
}

std::vector<int> pick(Rand& r, int P, int count, bool (*ok)(int)) {
  std::vector<int> out;
  while (static_cast<int>(out.size()) < count) {
    const int p = r.range(0, P - 1);
    if (ok(p) && std::find(out.begin(), out.end(), p) == out.end()) {
      out.push_back(p);
    }
  }
  return out;
}

bool anyProcess(int) { return true; }

std::vector<Query> wideQueries(Rand& r) {
  struct Size {
    int P, E;
  };
  static const Size kSizes[8] = {{12, 1500}, {16, 1200}, {20, 1000},
                                 {24, 1000}, {16, 1600}, {12, 2000},
                                 {20, 1200}, {24, 1000}};
  enum W { ConjP, ConjD, SumGe, SumEq, Sym, Cpdsc, Chains, kKinds };
  static const char* kNames[kKinds] = {"conj-possibly", "conj-definitely",
                                       "sum-ge", "sum-eq", "symmetric",
                                       "cpdsc", "chain-cover"};
  // Kinds per slot, fixed for every seed. The conjunctive kernels cost less
  // than the parse, so they are the majority; the singular CNF scans, the
  // min-cut and the exact-sum kernels cost several parses each and make up
  // the tail.
  static const W kPattern[20] = {ConjP, ConjD, Cpdsc, ConjP, ConjD,
                                 Sym,   ConjP, ConjD, Chains, ConjP,
                                 ConjD, SumGe, ConjP, ConjD, Cpdsc,
                                 ConjP, ConjD, Chains, Sym,  SumEq};
  std::vector<Query> out;
  int seen[kKinds] = {};
  int kindCursor = 0;
  for (int t = 0; t < 8; ++t) {
    const Wide w = wideTrace(r, kSizes[t].P, kSizes[t].E);
    const Model& m = w.m;
    const std::string text = m.text();
    const int P = m.n;
    for (int j = 0; j < 5; ++j) {
      const int kind = kPattern[kindCursor++ % 20];
      const bool yes = (seen[kind]++ % 2) == 0;
      Query q;
      q.text = text;
      q.label = std::string(kNames[kind]) + "#" + std::to_string(out.size());
      auto initial = [&](int var, const std::vector<int>& ps) {
        std::int64_t s = 0;
        for (int p : ps) s += m.vals[var][p][0];
        return s;
      };
      auto final = [&](int var, const std::vector<int>& ps) {
        std::int64_t s = 0;
        for (int p : ps) s += m.vals[var][p][m.len[p] - 1];
        return s;
      };
      auto maxSum = [&](int var, const std::vector<int>& ps) {
        std::int64_t s = 0;
        for (int p : ps) {
          s += *std::max_element(m.vals[var][p].begin(), m.vals[var][p].end());
        }
        return s;
      };
      switch (kind) {
        case ConjP: {
          // Six barrier members (all true at the barrier) for Yes; five and
          // a never-true member for No. The SAT route below confirms it.
          q.kind = Kind::Conj;
          std::vector<int> ps = w.barrier;
          for (std::size_t k = ps.size(); k > 1; --k) {
            std::swap(ps[k - 1], ps[r.next() % k]);
          }
          ps.resize(6);
          for (std::size_t k = 0; k < ps.size(); ++k) {
            q.conj.terms.push_back(
                gpd::varTrue(ps[k], !yes && k == 0 ? "z" : "a"));
          }
          break;
        }
        case ConjD: {
          q.kind = Kind::Conj;
          q.definitely = true;
          for (int p : w.barrier) q.conj.terms.push_back(gpd::varTrue(p, "a"));
          if (!yes) {  // a member whose variable is never true
            int o = 0;
            while (std::find(w.barrier.begin(), w.barrier.end(), o) !=
                   w.barrier.end()) {
              ++o;
            }
            q.conj.terms.push_back(gpd::varTrue(o, "z"));
          }
          q.expected = yes;
          break;
        }
        case SumGe:
        case SumEq: {
          q.kind = Kind::Sum;
          const std::vector<int> ps = pick(r, P, 4, anyProcess);
          for (int p : ps) q.sum.terms.push_back({p, "x"});
          const std::int64_t lo = initial(1, ps);
          const std::int64_t hi = final(1, ps);
          q.sum.relop = kind == SumGe ? gpd::Relop::GreaterEq : gpd::Relop::Equal;
          // Yes: reached at the initial or final cut, or (steps of at most
          // 1) on every path between them. No: above every local maximum.
          q.sum.k = !yes ? maxSum(1, ps) + 1
                    : kind == SumGe ? std::max(lo, hi)
                                    : (lo + hi) / 2;
          q.expected = yes;
          break;
        }
        case Sym: {
          q.kind = Kind::Sym;
          std::vector<int> ps = pick(r, P, 4, anyProcess);
          std::vector<gpd::SumTerm> vars;
          for (int p : ps) vars.push_back({p, "b"});
          int k;
          if (yes) {
            const std::int64_t lo = initial(2, ps);
            const std::int64_t hi = final(2, ps);
            k = static_cast<int>((lo + hi) / 2);
          } else {
            vars.back().var = "z";  // one member never true: all-true is out
            k = static_cast<int>(vars.size());
          }
          q.sym = gpd::exactlyK(std::move(vars), k);
          q.expected = yes;
          break;
        }
        case Cpdsc:
        case Chains: {
          q.kind = Kind::Cnf;
          // Disjoint two-process clauses: a quiet member makes the group
          // receive-ordered (CPDSC); two receiving members need the chain
          // cover enumeration.
          std::vector<int> used;
          for (int g = 0; g < 3; ++g) {  // P >= 12 has 3 quiet processes
            int u, v;
            do {
              u = r.range(0, P - 1);
              v = r.range(0, P - 1);
            } while (u == v ||
                     (kind == Cpdsc ? !(quiet(u) && !quiet(v))
                                    : (quiet(u) || quiet(v))) ||
                     std::find(used.begin(), used.end(), u) != used.end() ||
                     std::find(used.begin(), used.end(), v) != used.end());
            used.push_back(u);
            used.push_back(v);
            // No: one clause over never-true literals. The SAT route below
            // decides the answer either way.
            const char* var = !yes && g == 0 ? "z" : "c";
            q.cnf.clauses.push_back({lit(u, var), lit(v, var)});
          }
          break;
        }
      }
      out.push_back(std::move(q));
    }
  }
  return out;
}

// ---- Running one query -------------------------------------------------------

struct Outcome {
  bool yes = false;
  std::optional<Cut> witness;
  std::string algorithm;
  // Counted over the Detector call alone, like detectNs.
  std::uint64_t cuts = 0;
  std::uint64_t combinations = 0;
  std::uint64_t frontierBytes = 0;
  std::optional<gpd::detect::SliceTrace> slice;
  std::uint64_t ns = 0;        // the whole query
  std::uint64_t detectNs = 0;  // Detector::possibly/definitely alone
};

struct Counters {
  gpd::obs::Counter& cuts = gpd::obs::registry().counter("cuts_enumerated");
  gpd::obs::Counter& combos =
      gpd::obs::registry().counter("cpdhb_combinations");
  gpd::obs::Gauge& frontier =
      gpd::obs::registry().gauge("frontier_bytes_peak");
};

Outcome runQuery(const Query& q, gpd::par::Pool* pool, SpanLog& log,
                 std::uint64_t id, Counters& ctr) {
  namespace analyze = gpd::analyze;
  Outcome out;
  std::uint64_t cuts0 = 0, combos0 = 0;
  const std::uint64_t t0 = nowNs();
  {
    Scope root(log, "query", id);
    gpd::io::TraceFile tf;
    {
      Scope s(log, "io.parse", id);
      std::istringstream is(q.text);
      tf = gpd::io::readTrace(is);
    }
    std::optional<gpd::detect::Detector> det;
    {
      Scope s(log, "clocks.build", id);
      det.emplace(*tf.trace);
    }
    det->usePool(pool);
    const auto m = q.definitely ? analyze::Modality::Definitely
                                : analyze::Modality::Possibly;
    {
      Scope s(log, "analyze.plan", id);
      switch (q.kind) {
        case Kind::Conj:
          analyze::planConjunctive(det->clocks(), *tf.trace, q.conj, m);
          break;
        case Kind::Cnf:
          analyze::planCnf(det->clocks(), *tf.trace, q.cnf, m);
          break;
        case Kind::Sum:
          analyze::planSum(det->clocks(), *tf.trace, q.sum, m);
          break;
        case Kind::Sym:
          analyze::planSymmetric(det->clocks(), *tf.trace, q.sym, m);
          break;
      }
    }
    {
      Scope s(log, "detect.query", id);
      cuts0 = ctr.cuts.value();
      combos0 = ctr.combos.value();
      ctr.frontier.reset();
      const std::uint64_t d0 = nowNs();
      if (q.definitely) {
        switch (q.kind) {
          case Kind::Conj: out.yes = det->definitely(q.conj); break;
          case Kind::Cnf: out.yes = det->definitely(q.cnf); break;
          case Kind::Sum: out.yes = det->definitely(q.sum); break;
          case Kind::Sym: out.yes = det->definitely(q.sym); break;
        }
      } else {
        switch (q.kind) {
          case Kind::Conj: out.witness = det->possibly(q.conj); break;
          case Kind::Cnf: out.witness = det->possibly(q.cnf); break;
          case Kind::Sum: out.witness = det->possibly(q.sum); break;
          case Kind::Sym: out.witness = det->possibly(q.sym); break;
        }
        out.yes = out.witness.has_value();
      }
      out.detectNs = nowNs() - d0;
    }
    out.algorithm = det->lastAlgorithm();
    out.slice = det->lastSlice();
  }
  out.ns = nowNs() - t0;
  out.cuts = ctr.cuts.value() - cuts0;
  out.combinations = ctr.combos.value() - combos0;
  out.frontierBytes = static_cast<std::uint64_t>(ctr.frontier.value());
  return out;
}

// Independent check of one verdict; returns an empty string when it holds.
std::string verify(const Query& q, const Outcome& out) {
  if (out.yes != q.expected) {
    return q.label + ": verdict " + (out.yes ? "yes" : "no") +
           ", expected " + (q.expected ? "yes" : "no") + " [" +
           out.algorithm + "]";
  }
  if (!out.witness) return "";
  const Cut& cut = *out.witness;
  const gpd::VariableTrace& trace = *q.parsed->file.trace;
  if (cut.processes() != q.parsed->file.computation->processCount() ||
      !q.parsed->clocks->isConsistent(cut)) {
    return q.label + ": witness " + cut.toString() + " is not a consistent cut";
  }
  bool holds = false;
  switch (q.kind) {
    case Kind::Conj: holds = q.conj.holdsAtCut(trace, cut); break;
    case Kind::Cnf: holds = q.cnf.holdsAtCut(trace, cut); break;
    case Kind::Sum: holds = q.sum.holdsAtCut(trace, cut); break;
    case Kind::Sym: holds = q.sym.holdsAtCut(trace, cut); break;
  }
  return holds ? "" : q.label + ": predicate is false on witness " + cut.toString();
}

// Parses each query once for verification and fills in the answers of the
// queries whose truth comes from the SAT route.
void prepare(std::vector<Query>& qs) {
  for (std::size_t i = 0; i < qs.size(); ++i) {
    Query& q = qs[i];
    if (i > 0 && qs[i - 1].text == q.text) {
      q.parsed = qs[i - 1].parsed;
    } else {
      auto parsed = std::make_shared<Query::Parsed>();
      std::istringstream is(q.text);
      parsed->file = gpd::io::readTrace(is);
      parsed->clocks = std::make_unique<VectorClocks>(*parsed->file.computation);
      q.parsed = std::move(parsed);
    }
    gpd::CnfPredicate asCnf;
    if (q.kind == Kind::Conj && !q.definitely) {
      for (const auto& t : q.conj.terms) {
        // varTrue(p, var) labels its term with the variable's name.
        asCnf.clauses.push_back({lit(t.process, t.label)});
      }
    } else if (q.kind == Kind::Cnf && q.cnf.isSingular() && q.oracleCuts == 0) {
      asCnf = q.cnf;
    } else {
      continue;
    }
    q.expected = gpd::detect::detectSingularViaSat(
                     *q.parsed->clocks, *q.parsed->file.trace, asCnf)
                     .cut.has_value();
  }
}

struct Pass {
  Samples ms;  // per-query wall time
  std::vector<std::pair<std::size_t, Outcome>> done;  // query index, outcome
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double busyS = 0;
};

// The closed loop: one caller, queries in a seeded order, repeated until
// `seconds` of wall time have passed.
Pass closedLoop(const std::vector<Query>& qs, double seconds,
                std::uint64_t seed, SpanLog& log, Result& res) {
  Counters ctr;
  Pass pass;
  std::vector<std::size_t> order(qs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rand r(seed ^ 0x5eed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[r.next() % i]);
  }
  const bool verbose = std::getenv("PERFBENCH_VERBOSE") != nullptr;
  const std::uint64_t start = nowNs();
  for (std::uint64_t k = 0; msBetween(start, nowNs()) < seconds * 1e3; ++k) {
    const std::size_t qi = order[k % order.size()];
    const Query& q = qs[qi];
    ++pass.attempted;
    Outcome out;
    try {
      out = runQuery(q, nullptr, log, k, ctr);
    } catch (const std::exception& e) {
      ++pass.failed;
      res.fail(q.label + ": " + e.what());
      continue;
    }
    const std::string bad = verify(q, out);
    if (!bad.empty()) {
      ++pass.failed;
      res.fail(bad);
      continue;
    }
    const double ms = static_cast<double>(out.ns) / 1e6;
    if (verbose && k < qs.size()) {
      std::cerr << q.label << " -> " << (out.yes ? "yes" : "no") << " ["
                << out.algorithm << "] " << ms << " ms, " << out.cuts
                << " cuts, " << out.combinations << " combinations\n";
    }
    pass.ms.add(ms);
    pass.busyS += ms / 1e3;
    pass.done.emplace_back(qi, std::move(out));
  }
  return pass;
}

// Per-layer metrics of the traced pass.
void layerMetrics(const std::vector<Query>& qs, const Pass& pass,
                  const SpanLog& log, std::map<std::string, double>& L) {
  std::map<std::string, Samples> dur;
  for (const Span& s : log.spans()) {
    dur[s.name].add(static_cast<double>(s.endNs - s.startNs) / 1e6);
  }
  L["io.parse_ms"] = dur["io.parse"].median();
  L["clocks.build_ms"] = dur["clocks.build"].median();
  L["analyze.plan_ms"] = dur["analyze.plan"].median();
  L["detect.query_ms"] = dur["detect.query"].median();
  double bytes = 0;
  for (const auto& [qi, out] : pass.done) bytes += static_cast<double>(qs[qi].text.size());
  const double parseS = dur["io.parse"].sum() / 1e3;
  L["io.parse_mib_per_s"] = parseS > 0 ? bytes / (1 << 20) / parseS : 0;

  double cuts = 0, cutNs = 0, combos = 0, comboNs = 0, explored = 0,
         predicted = 0, frontier = 0;
  std::size_t latticeQueries = 0;
  for (const auto& [qi, out] : pass.done) {
    // The lattice searches that publish cuts_enumerated; the `definitely`
    // search (lattice-definitely) does not, and the other
    // kernels count a cut or two that are not a lattice walk.
    const bool walk =
        out.algorithm == "lattice-enumeration" || out.algorithm == "slice-first";
    if (walk && out.cuts > 0) {
      cuts += static_cast<double>(out.cuts);
      cutNs += static_cast<double>(out.detectNs);
      ++latticeQueries;
    }
    if (out.combinations > 0) {
      combos += static_cast<double>(out.combinations);
      comboNs += static_cast<double>(out.detectNs);
    }
    if (out.slice && out.slice->predictedCuts > 0) {
      explored += static_cast<double>(out.slice->exploredCuts);
      predicted += static_cast<double>(out.slice->predictedCuts);
    }
    frontier = std::max(frontier, static_cast<double>(out.frontierBytes));
  }
  const double nq = static_cast<double>(std::max<std::size_t>(1, pass.done.size()));
  L["lattice.cuts"] = latticeQueries ? cuts / static_cast<double>(latticeQueries) : 0;
  L["lattice.ns_per_cut"] = cuts > 0 ? cutNs / cuts : 0;
  L["lattice.frontier_peak_mib"] = frontier / (1 << 20);
  L["slice.explored_over_predicted"] = predicted > 0 ? explored / predicted : 0;
  L["detect.combinations"] = combos / nq;
  L["detect.combinations_per_s"] = comboNs > 0 ? combos / (comboNs / 1e9) : 0;
}

}  // namespace

Result runOffline(const RunOptions& o) {
  Result res;
  const bool lattice = o.workload == "detect-lattice";
  Rand r(o.seed);
  std::vector<Query> qs = lattice ? latticeQueries(r) : wideQueries(r);
  prepare(qs);
  std::size_t yes = 0;
  for (const Query& q : qs) yes += q.expected ? 1 : 0;
  res.note("queries", std::to_string(qs.size()) + " distinct, " +
                          std::to_string(yes) + " expected yes");

  // Set-up: one warm-up query of the smallest shape, which pays the lazy
  // first-use costs. It is built from a fixed seed, so its cost is the same
  // for every --seed. Repeated; the median is reported.
  Rand wr(0);
  const Query warm = lattice ? latticeQuery(wr, LShape::CnfPossibly, true, 1e4, 0)
                             : wideQueries(wr).front();
  Samples setup;
  for (int rep = 0; rep < 31; ++rep) {
    SpanLog off(false);
    Counters ctr;
    const std::uint64_t t0 = nowNs();
    runQuery(warm, nullptr, off, 0, ctr);
    setup.add(static_cast<double>(nowNs() - t0) / 1e9);
  }

  std::map<std::string, double> layers;
  Pass main;
  if (!o.trace) {
    SpanLog off(false);
    main = closedLoop(qs, o.seconds, o.seed, off, res);
  } else {
    SpanLog off(false);
    Pass plain = closedLoop(qs, o.seconds / 2, o.seed, off, res);
    SpanLog log(true);
    main = closedLoop(qs, o.seconds / 2, o.seed, log, res);
    // Tracing overhead over the common prefix of the two (same-order) passes.
    const std::size_t k = std::min(plain.ms.size(), main.ms.size());
    double a = 0, b = 0;
    for (std::size_t i = 0; i < k; ++i) {
      a += static_cast<double>(plain.done[i].second.ns);
      b += static_cast<double>(main.done[i].second.ns);
    }
    layers["trace.overhead_pct"] = a > 0 ? (b / a - 1) * 100 : 0;
    const double cov = log.coverage();
    layers["trace.coverage"] = cov;
    if (cov < 0.9 || cov > 1.1) {
      res.fail("stage coverage: parse+clocks+plan+detect spans cover " +
               std::to_string(cov) + " of query wall time");
    }
    layerMetrics(qs, main, log, layers);
    // Self time per layer: the span's duration minus its children's.
    for (const auto& [name, self] : log.selfTimes()) {
      res.addExtra("self_ms." + name, "ms", self.first / 1e6);
    }
    log.writeChromeTrace(o.workDir + "/" + o.workload + "-seed" +
                         std::to_string(o.seed) + ".trace.json");
    res.note("trace_file", o.workload + "-seed" + std::to_string(o.seed) +
                               ".trace.json");
    res.attempted += plain.attempted;
    res.failed += plain.failed;

    // Inline replays of a sample of lattice queries: the sequential ≡
    // pooled contract, and the single-thread baseline for the speed-up.
    if (lattice) {
      gpd::par::Pool pool(o.threads);
      Counters ctr;
      SpanLog none(false);
      double inlineNs = 0, pooledNs = 0;
      int replayed = 0;
      for (const Query& q : qs) {
        if (q.oracleCuts < 50000 || q.oracleCuts > 400000 || replayed == 6) continue;
        ++replayed;
        const Outcome seq = runQuery(q, nullptr, none, 0, ctr);
        const Outcome par = runQuery(q, &pool, none, 0, ctr);
        inlineNs += static_cast<double>(seq.ns);
        pooledNs += static_cast<double>(par.ns);
        if (seq.yes != par.yes || seq.witness != par.witness) {
          res.fail(q.label + ": pooled verdict/witness differs from inline");
        }
      }
      layers["par.lattice_speedup"] = pooledNs > 0 ? inlineNs / pooledNs : 0;
    }
  }
  res.attempted += main.attempted;
  res.failed += main.failed;

  if (main.ms.empty()) {
    res.fail("no query completed");
    return res;
  }
  // Each distinct query runs several times in a run; its figure is the
  // fastest repetition (noise on a shared machine only ever adds time).
  // Percentiles are over the distinct queries; with 40 of them p75 is the
  // highest percentile with ten queries beyond it. They are Harrell–Davis
  // estimates, which weigh every query instead of the two next to the
  // percentile, so one noisy query moves them less.
  std::map<std::size_t, double> best;
  for (const auto& [qi, out] : main.done) {
    const double ms = static_cast<double>(out.ns) / 1e6;
    auto [it, fresh] = best.emplace(qi, ms);
    if (!fresh) it->second = std::min(it->second, ms);
  }
  Samples bestMs, bestYesMs;
  double bestSumS = 0;
  for (const auto& [qi, ms] : best) {
    bestMs.add(ms);
    if (qs[qi].expected) bestYesMs.add(ms);
    bestSumS += ms / 1e3;
  }
  const double tail = 0.75;
  res.add("setup_s", "s", setup.median(), &setup);
  res.add("rss_peak_mib", "MiB", peakRssMib());
  res.add("latency_ms_p50", "ms", bestMs.hdQuantile(0.5), &bestMs);
  res.add("latency_ms_tail", "ms", bestMs.hdQuantile(tail), &bestMs);
  res.add("throughput_per_s", "1/s", static_cast<double>(bestMs.size()) / bestSumS);
  res.add("detect_ms_p50", "ms", bestYesMs.hdQuantile(0.5), &bestYesMs);
  res.add("detect_ms_tail", "ms", bestYesMs.hdQuantile(tail), &bestYesMs);
  res.note("tail_percentile", "Harrell-Davis p75 over distinct queries, fastest repetition each");
  res.addExtra("query_ms_all", "ms", main.ms.median(), &main.ms);
  res.addExtra("queries_per_s_closed_loop", "1/s",
               static_cast<double>(main.ms.size()) / main.busyS);
  res.addExtra("fail_ratio", "ratio",
               static_cast<double>(res.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, res.attempted)));
  res.layers = std::move(layers);
  return res;
}

}  // namespace perfbench
