#include "srclint/checks.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace gpd::srclint {

namespace {

using analyze::Diagnostic;
using analyze::Severity;

// ---------------------------------------------------------------------------
// Shared vocabulary
// ---------------------------------------------------------------------------

// Direct Budget/CancelToken charge or poll calls (control/budget.h).
const std::set<std::string>& chargeCalls() {
  static const std::set<std::string> s = {
      "chargeCut", "chargeCombination", "keepGoing", "noteFrontierBytes",
      "cancelRequested", "exhausted",
  };
  return s;
}

// Enumeration/advance kernels: calls that expand a super-polynomial search
// space one step (or run a whole unbudgeted search). A loop around any of
// these must charge a budget or poll a cancel token (gpd-budget-charge).
const std::set<std::string>& kernelCalls() {
  static const std::set<std::string> s = {
      // the lattice BFS and its wrappers
      "explore", "possibly", "definitely", "latticeStats",
      // CPDHB scan — one invocation per enumeration combination (Sec. 3.3)
      "findConsistentSelection", "findConsistentSelectionImpl",
      // slicing kernels: the per-event linear-detector fixpoint and the
      // whole-slice builders (a loop around any of these walks the event
      // set or the sublattice and must stay budget-stoppable)
      "detectLinearFrom", "computeSlice", "countSatisfyingCuts",
      // DNF expansion (distribution is exponential in the expression)
      "toDnf", "dnfOf", "mergeTerms",
      // whole-search solvers
      "solveDpll", "solveSubsetSum",
  };
  return s;
}

// Directories whose loops the budget-charge check gates.
bool inBudgetedDir(const std::string& relPath) {
  for (const char* dir :
       {"src/lattice/", "src/detect/", "src/sat/", "src/predicates/"}) {
    if (relPath.find(dir) != std::string::npos) return true;
  }
  return false;
}

bool inClockSanctionedDir(const std::string& relPath) {
  return relPath.find("src/control/") != std::string::npos ||
         relPath.find("src/obs/") != std::string::npos;
}

Finding makeFinding(const FileModel& file, int line, const char* check,
                    std::string message) {
  Finding f;
  f.file = file.relPath;
  f.diag.severity = Severity::Error;
  f.diag.code = check;
  f.diag.line = line;
  f.diag.message = std::move(message);
  return f;
}

// ---------------------------------------------------------------------------
// gpd-budget-charge
// ---------------------------------------------------------------------------

std::vector<Finding> checkBudgetCharge(const FileModel& file,
                                       const Context& ctx) {
  std::vector<Finding> out;
  if (!inBudgetedDir(file.relPath)) return out;
  for (const Loop& loop : file.loops) {
    bool charges = false;
    const Call* kernel = nullptr;
    for (const Call* c : file.callsIn(loop.body)) {
      if (chargeCalls().count(c->name) != 0 ||
          ctx.chargingFunctions.count(c->name) != 0) {
        charges = true;
        break;
      }
      if (kernel == nullptr && kernelCalls().count(c->name) != 0) {
        kernel = c;
      }
    }
    if (charges || kernel == nullptr) continue;
    out.push_back(makeFinding(
        file, loop.line, "gpd-budget-charge",
        "loop calls enumeration kernel '" + kernel->name +
            "' but neither the loop body nor its callee chain charges a "
            "control::Budget or polls a CancelToken; thread a Budget through "
            "(chargeCut/chargeCombination/keepGoing) so the anytime contract "
            "(DESIGN.md §8) can stop this scan"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// gpd-clock-discipline
// ---------------------------------------------------------------------------

std::vector<Finding> checkClockDiscipline(const FileModel& file,
                                          const Context&) {
  std::vector<Finding> out;
  if (inClockSanctionedDir(file.relPath)) return out;
  const std::vector<Tok>& toks = file.toks;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident) continue;
    const std::string& name = toks[i].text;
    if (name != "steady_clock" && name != "system_clock" &&
        name != "high_resolution_clock") {
      continue;
    }
    if (toks[i + 1].text != "::" || toks[i + 2].text != "now" ||
        toks[i + 3].text != "(") {
      continue;
    }
    out.push_back(makeFinding(
        file, toks[i].line, "gpd-clock-discipline",
        "direct " + name +
            "::now() outside src/control and src/obs; hot paths must read "
            "time through util/stopwatch.h steadyNowNanos() consumers "
            "(obs spans, Budget's amortized polls) so clock reads stay "
            "amortized (the A9 contract)"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// gpd-span-raii
// ---------------------------------------------------------------------------

// A statement-initial `gpd::obs::Span("x");` (or obs::Span / Span /
// NullSpan) constructs a temporary that records a zero-length span and
// closes immediately — the result must bind to a named local, which is what
// GPD_TRACE_SPAN / GPD_TRACE_SPAN_NAMED do.
std::vector<Finding> checkSpanRaii(const FileModel& file, const Context&) {
  std::vector<Finding> out;
  const std::vector<Tok>& toks = file.toks;
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Statement start: beginning of file or after ; { }.
    if (i != 0) {
      const Tok& prev = toks[i - 1];
      if (!(prev.kind == TokKind::Punct &&
            (prev.text == ";" || prev.text == "{" || prev.text == "}"))) {
        continue;
      }
    }
    // Optional leading '::', then an (ident '::')* chain ending in
    // Span/NullSpan immediately followed by '('.
    std::size_t j = i;
    if (toks[j].kind == TokKind::Punct && toks[j].text == "::") ++j;
    if (j >= n || toks[j].kind != TokKind::Ident) continue;
    std::size_t last = j;
    while (last + 1 < n && toks[last + 1].text == "::" &&
           last + 2 < n && toks[last + 2].kind == TokKind::Ident) {
      last += 2;
    }
    const std::string& name = toks[last].text;
    if (name != "Span" && name != "NullSpan") continue;
    if (last + 1 >= n || toks[last + 1].text != "(") continue;
    const auto it = file.match.find(last + 1);
    if (it == file.match.end()) continue;
    const std::size_t closeParen = it->second;
    if (closeParen + 1 >= n || toks[closeParen + 1].text != ";") continue;
    out.push_back(makeFinding(
        file, toks[last].line, "gpd-span-raii",
        "obs::" + name +
            " constructed as a discarded temporary — it destructs at the "
            "';' and records a zero-length span; bind it to a named local "
            "(use GPD_TRACE_SPAN / GPD_TRACE_SPAN_NAMED) so the span covers "
            "the scope"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// gpd-pool-capture
// ---------------------------------------------------------------------------

bool isKeywordName(const std::string& s);

// Variables declared std::atomic<...> (or mutex types) inside `range`.
void scanDecls(const FileModel& file, const TokRange& range,
               std::set<std::string>* atomics, std::set<std::string>* plain) {
  const std::vector<Tok>& toks = file.toks;
  for (std::size_t i = range.begin; i + 1 < range.end; ++i) {
    if (toks[i].kind != TokKind::Ident) continue;
    if (toks[i].text == "atomic" || toks[i].text == "atomic_bool" ||
        toks[i].text == "atomic_int" || toks[i].text == "atomic_uint64_t") {
      // std::atomic<T> name  — find the identifier after the closing '>'.
      std::size_t j = i + 1;
      if (j < range.end && toks[j].text == "<") {
        int depth = 0;
        while (j < range.end) {
          if (toks[j].text == "<") ++depth;
          if (toks[j].text == ">") {
            --depth;
            if (depth == 0) break;
          }
          if (toks[j].text == ">>") {
            depth -= 2;
            if (depth <= 0) break;
          }
          ++j;
        }
        ++j;
      }
      if (j < range.end && toks[j].kind == TokKind::Ident) {
        atomics->insert(toks[j].text);
      }
      continue;
    }
    // Plain declaration heuristic: ident ident followed by = ; { ( — the
    // second identifier is a declared name (covers `std::uint64_t count`,
    // `int i`, `std::vector<Cut> next` via the '>' branch below).
    const bool typePrev = toks[i].kind == TokKind::Ident ||
                          toks[i].text == ">" || toks[i].text == "&" ||
                          toks[i].text == "*";
    if (!typePrev) continue;
    const Tok& nameTok = toks[i + 1];
    if (nameTok.kind != TokKind::Ident || isKeywordName(nameTok.text)) {
      continue;
    }
    if (i + 2 < range.end) {
      const std::string& after = toks[i + 2].text;
      if (after == "=" || after == ";" || after == "{" || after == "(") {
        plain->insert(nameTok.text);
      }
    }
  }
}

bool isKeywordName(const std::string& s) {
  static const std::set<std::string> kw = {
      "if", "for", "while", "return", "else", "break", "continue", "const",
      "auto", "case", "switch", "do", "new", "delete", "sizeof", "true",
      "false", "nullptr", "this", "operator", "throw", "catch", "try",
  };
  return kw.count(s) != 0;
}

// Does `range` contain a lock-guard declaration before token index `until`?
bool lockHeldBefore(const FileModel& file, const TokRange& range,
                    std::size_t until) {
  const std::vector<Tok>& toks = file.toks;
  for (std::size_t i = range.begin; i < until && i < range.end; ++i) {
    if (toks[i].kind != TokKind::Ident) continue;
    const std::string& t = toks[i].text;
    if (t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
        t == "shared_lock") {
      return true;
    }
  }
  return false;
}

std::vector<Finding> checkPoolCapture(const FileModel& file, const Context&) {
  std::vector<Finding> out;
  const std::vector<Tok>& toks = file.toks;
  for (const Call& call : file.calls) {
    if (call.name != "run" || call.receiver.empty()) continue;
    // Receiver must look like a par::Pool: name contains "pool" (pool,
    // pool_, workerPool, ...), case-insensitive.
    std::string lower = call.receiver;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.find("pool") == std::string::npos) continue;
    // Lambdas passed in the argument list.
    for (const Lambda& lam : file.lambdas) {
      if (lam.full.begin < call.argsBegin || lam.full.end > call.argsEnd + 1) {
        continue;
      }
      // Atomic / plain declarations visible to the lambda: scan the
      // enclosing function's body up to the lambda.
      const FnDef* fn = file.enclosingFunction(call.tok);
      std::set<std::string> atomics;
      std::set<std::string> enclosingPlain;
      if (fn != nullptr) {
        TokRange before{fn->body.begin, lam.full.begin};
        scanDecls(file, before, &atomics, &enclosingPlain);
      }
      // Locals declared inside the lambda (including its parameters).
      std::set<std::string> locals(lam.params.begin(), lam.params.end());
      {
        std::set<std::string> lamAtomics;
        scanDecls(file, lam.body, &lamAtomics, &locals);
        locals.insert(lamAtomics.begin(), lamAtomics.end());
      }
      const std::string workerParam =
          lam.params.empty() ? std::string() : lam.params.front();
      // Mutations of by-ref captured, non-atomic, visible-declared names.
      for (std::size_t i = lam.body.begin; i < lam.body.end; ++i) {
        if (toks[i].kind != TokKind::Ident) continue;
        // Member accesses mutate through the object before the '.'/'->';
        // that object, not the member name, is what capture rules govern.
        if (i > lam.body.begin &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
          continue;
        }
        const std::string& name = toks[i].text;
        if (locals.count(name) != 0 || atomics.count(name) != 0) continue;
        const bool byRef = lam.capturesAllByRef
                               ? lam.valueCaptures.count(name) == 0
                               : lam.refCaptures.count(name) != 0;
        if (!byRef) continue;
        if (enclosingPlain.count(name) == 0) continue;  // unknown: skip
        // Skip subscripted access indexed by the worker parameter
        // (per-worker slots are the sanctioned pattern).
        if (i + 1 < lam.body.end && toks[i + 1].text == "[") {
          const auto it = file.match.find(i + 1);
          bool byWorker = false;
          if (it != file.match.end() && !workerParam.empty()) {
            for (std::size_t j = i + 2; j < it->second; ++j) {
              if (toks[j].kind == TokKind::Ident &&
                  toks[j].text == workerParam) {
                byWorker = true;
                break;
              }
            }
          }
          if (byWorker) continue;
          // Mutation through a non-worker subscript: check the operator
          // after the closing ']'.
          if (it == file.match.end()) continue;
          const std::size_t after = it->second + 1;
          if (after >= lam.body.end) continue;
          const std::string& op = toks[after].text;
          if (op != "=" && op != "+=" && op != "-=" && op != "*=" &&
              op != "/=" && op != "|=" && op != "&=" && op != "^=" &&
              op != "++" && op != "--") {
            continue;
          }
          if (lockHeldBefore(file, lam.body, i)) continue;
          out.push_back(makeFinding(
              file, toks[i].line, "gpd-pool-capture",
              "'" + name + "' is captured by reference and mutated ('" + op +
                  "') inside a lambda passed to par::Pool::run without "
                  "atomics or a lock, and the subscript does not involve "
                  "the worker index — concurrent workers race (the PR 5 "
                  "bug class); use std::atomic, a per-worker slot, or a "
                  "mutex"));
          continue;
        }
        // Plain mutation: prefix ++/--, or name followed by a mutating op.
        const bool prefixMut =
            i > lam.body.begin && (toks[i - 1].text == "++" ||
                                   toks[i - 1].text == "--");
        std::string op;
        if (prefixMut) {
          op = toks[i - 1].text;
        } else if (i + 1 < lam.body.end) {
          const std::string& next = toks[i + 1].text;
          if (next == "++" || next == "--" || next == "+=" || next == "-=" ||
              next == "*=" || next == "/=" || next == "|=" || next == "&=" ||
              next == "^=" || next == "<<=" || next == ">>=") {
            op = next;
          } else if (next == "=" && (i + 2 >= lam.body.end ||
                                     toks[i + 2].text != "=")) {
            // Assignment, not ==; exclude declarations (type token right
            // before the name).
            const Tok& prev = toks[i - 1];
            const bool declLike = prev.kind == TokKind::Ident ||
                                  prev.text == ">" || prev.text == "*" ||
                                  prev.text == "&";
            if (!declLike) op = "=";
          }
        }
        if (op.empty()) continue;
        if (lockHeldBefore(file, lam.body, i)) continue;
        out.push_back(makeFinding(
            file, toks[i].line, "gpd-pool-capture",
            "'" + name + "' is captured by reference and mutated ('" + op +
                "') inside a lambda passed to par::Pool::run without "
                "std::atomic or a lock — concurrent workers race (the PR 5 "
                "bug class); use std::atomic, a per-worker slot indexed by "
                "the worker id, or a mutex"));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// gpd-checkpoint-symmetry
// ---------------------------------------------------------------------------

// Identifier-shaped checkpoint field key: strip trailing "\n"/spaces as
// written in the literal, then require [A-Za-z][A-Za-z0-9_-]*.
std::string keyOf(const std::string& literal) {
  std::string s = literal;
  // Strip escape sequences and surrounding spaces.
  while (s.size() >= 2 && s.compare(s.size() - 2, 2, "\\n") == 0) {
    s.resize(s.size() - 2);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.pop_back();
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.erase(0, 1);
  if (s.empty()) return {};
  if (!std::isalpha(static_cast<unsigned char>(s[0]))) return {};
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-')) {
      return {};
    }
  }
  return s;
}

struct KeyUse {
  std::string key;
  int line = 1;
};

std::vector<KeyUse> keysIn(const FileModel& file, const TokRange& range) {
  std::vector<KeyUse> out;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    if (file.toks[i].kind != TokKind::Str) continue;
    std::string key = keyOf(file.toks[i].text);
    if (!key.empty()) out.push_back({std::move(key), file.toks[i].line});
  }
  return out;
}

// save*/write*/capture* functions pair with restore*/read*/load*/apply* of
// the same suffix in the same file.
const FnDef* pairedReader(const FileModel& file, const std::string& suffix) {
  for (const char* verb : {"read", "restore", "load", "apply"}) {
    const std::string want = verb + suffix;
    for (const FnDef& fn : file.functions) {
      if (fn.name == want) return &fn;
    }
  }
  return nullptr;
}

std::vector<Finding> checkCheckpointSymmetry(const FileModel& file,
                                             const Context&) {
  std::vector<Finding> out;
  for (const FnDef& writer : file.functions) {
    std::string suffix;
    if (writer.name.compare(0, 5, "write") == 0) {
      suffix = writer.name.substr(5);
    } else if (writer.name.compare(0, 4, "save") == 0) {
      suffix = writer.name.substr(4);
    } else if (writer.name.compare(0, 7, "capture") == 0) {
      suffix = writer.name.substr(7);
    } else {
      continue;
    }
    if (suffix.empty()) continue;
    const FnDef* reader = pairedReader(file, suffix);
    if (reader == nullptr) continue;  // no pair in this TU: out of scope
    std::set<std::string> readKeys;
    for (const KeyUse& k : keysIn(file, reader->body)) readKeys.insert(k.key);
    std::set<std::string> reported;
    for (const KeyUse& k : keysIn(file, writer.body)) {
      if (readKeys.count(k.key) != 0) continue;
      if (!reported.insert(k.key).second) continue;
      out.push_back(makeFinding(
          file, k.line, "gpd-checkpoint-symmetry",
          "field key '" + k.key + "' is written by " + writer.name +
              "() but never matched in the paired " + reader->name +
              "() — a checkpoint written today would lose this field on "
              "restore (the PR 6 durability contract); read it back or "
              "drop the write"));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// gpd-log-discipline
// ---------------------------------------------------------------------------

// The service and its tools log through src/obs/log (levels, rate limits,
// JSON mode, a single sink); a raw std::cerr or fprintf(stderr, ...) there
// bypasses all of it and breaks machine-readable operation. Scope:
// src/service/ plus tools/, except tools/srclint/ itself — the linter links
// only gpd_analyze and cannot depend on the library it lints.
bool inLogDisciplinedDir(const std::string& relPath) {
  if (relPath.find("tools/srclint/") != std::string::npos) return false;
  return relPath.find("src/service/") != std::string::npos ||
         relPath.find("tools/") != std::string::npos;
}

std::vector<Finding> checkLogDiscipline(const FileModel& file,
                                        const Context&) {
  std::vector<Finding> out;
  if (!inLogDisciplinedDir(file.relPath)) return out;
  const std::vector<Tok>& toks = file.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident) continue;
    const std::string& name = toks[i].text;
    if (name == "cerr") {
      out.push_back(makeFinding(
          file, toks[i].line, "gpd-log-discipline",
          "raw std::cerr in a service/tool translation unit bypasses the "
          "structured log module (levels, rate limiting, JSON mode); emit "
          "through gpd::obs::log — GPD_LOG_* / log::error — or, for usage "
          "banners only, obs::log::rawStderr()"));
      continue;
    }
    if (name == "fprintf" && i + 2 < toks.size() &&
        toks[i + 1].text == "(" && toks[i + 2].text == "stderr") {
      out.push_back(makeFinding(
          file, toks[i].line, "gpd-log-discipline",
          "fprintf(stderr, ...) in a service/tool translation unit bypasses "
          "the structured log module (levels, rate limiting, JSON mode); "
          "emit through gpd::obs::log instead"));
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry and context
// ---------------------------------------------------------------------------

const std::vector<std::string>& checkNames() {
  static const std::vector<std::string> names = {
      "gpd-budget-charge",       "gpd-clock-discipline", "gpd-span-raii",
      "gpd-pool-capture",        "gpd-checkpoint-symmetry",
      "gpd-log-discipline",
  };
  return names;
}

bool isCheckName(const std::string& name) {
  const auto& names = checkNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Context buildContext(const std::vector<FileModel>& files) {
  Context ctx;
  // Name -> called names, across every scanned file (bare-name resolution;
  // overloads collapse, which errs toward "charges" — acceptable for a
  // structural gate).
  std::map<std::string, std::set<std::string>> callGraph;
  for (const FileModel& file : files) {
    for (const FnDef& fn : file.functions) {
      std::set<std::string>& callees = callGraph[fn.name];
      for (const Call* c : file.callsIn(fn.body)) callees.insert(c->name);
    }
  }
  // Seed: functions that call a charge primitive directly.
  for (const auto& [name, callees] : callGraph) {
    for (const std::string& callee : callees) {
      if (chargeCalls().count(callee) != 0) {
        ctx.chargingFunctions.insert(name);
        break;
      }
    }
  }
  // Fixpoint: calling a charging function makes the caller charging.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, callees] : callGraph) {
      if (ctx.chargingFunctions.count(name) != 0) continue;
      for (const std::string& callee : callees) {
        if (ctx.chargingFunctions.count(callee) != 0) {
          ctx.chargingFunctions.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
  return ctx;
}

std::vector<Finding> runCheck(const std::string& check, const FileModel& file,
                              const Context& ctx) {
  if (check == "gpd-budget-charge") return checkBudgetCharge(file, ctx);
  if (check == "gpd-clock-discipline") return checkClockDiscipline(file, ctx);
  if (check == "gpd-span-raii") return checkSpanRaii(file, ctx);
  if (check == "gpd-pool-capture") return checkPoolCapture(file, ctx);
  if (check == "gpd-checkpoint-symmetry") {
    return checkCheckpointSymmetry(file, ctx);
  }
  if (check == "gpd-log-discipline") return checkLogDiscipline(file, ctx);
  return {};
}

}  // namespace gpd::srclint
