#include "predicates/cnf.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace gpd {

CnfPredicate::Bound::Bound(const CnfPredicate& pred, const VariableTrace& trace)
    : trace_(&trace) {
  for (const CnfClause& clause : pred.clauses) {
    for (const BoolLiteral& l : clause) {
      literals_.push_back(
          Literal{l.process, l.positive, trace.find(l.process, l.var), &l});
    }
    ends_.push_back(literals_.size());
  }
}

bool CnfPredicate::Bound::holds(const Cut& cut) const {
  std::size_t begin = 0;
  for (const std::size_t end : ends_) {
    bool sat = false;
    for (std::size_t i = begin; i < end && !sat; ++i) {
      const Literal& l = literals_[i];
      const int at = cut.last[l.process];
      sat = l.history != nullptr ? (l.history[at] != 0) == l.positive
                                 : l.source->holds(*trace_, at);
    }
    if (!sat) return false;
    begin = end;
  }
  return true;
}

bool CnfPredicate::isSingular() const {
  std::set<ProcessId> seen;
  for (std::size_t j = 0; j < clauses.size(); ++j) {
    for (ProcessId p : clauseProcesses(static_cast<int>(j))) {
      if (!seen.insert(p).second) return false;
    }
  }
  return true;
}

bool CnfPredicate::isKCnf(int k) const {
  for (const CnfClause& c : clauses) {
    if (static_cast<int>(c.size()) != k) return false;
  }
  return true;
}

std::vector<ProcessId> CnfPredicate::clauseProcesses(int j) const {
  std::vector<ProcessId> out;
  for (const BoolLiteral& l : clauses[j]) out.push_back(l.process);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool CnfPredicate::holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
  for (const CnfClause& clause : clauses) {
    bool sat = false;
    for (const BoolLiteral& l : clause) {
      if (l.holds(trace, cut.last[l.process])) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

std::string CnfPredicate::toString() const {
  std::ostringstream os;
  for (std::size_t j = 0; j < clauses.size(); ++j) {
    if (j) os << " & ";
    os << '(';
    for (std::size_t i = 0; i < clauses[j].size(); ++i) {
      if (i) os << " | ";
      const BoolLiteral& l = clauses[j][i];
      if (!l.positive) os << '!';
      os << l.var << "@p" << l.process;
    }
    os << ')';
  }
  return os.str();
}

}  // namespace gpd
