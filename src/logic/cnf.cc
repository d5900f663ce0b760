#include "logic/cnf.h"

#include <algorithm>

namespace regal {

std::string Cnf::ToString() const {
  std::string out;
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " & ";
    out += "(";
    for (size_t j = 0; j < clauses[i].size(); ++j) {
      if (j > 0) out += " | ";
      Literal lit = clauses[i][j];
      out += lit < 0 ? "!x" : "x";
      out += std::to_string(lit < 0 ? -lit : lit);
    }
    out += ")";
  }
  return out;
}

bool Cnf::IsSatisfiedBy(const std::vector<bool>& assignment) const {
  for (const Clause& clause : clauses) {
    bool satisfied = false;
    for (Literal lit : clause) {
      int v = lit < 0 ? -lit : lit;
      bool value = assignment[static_cast<size_t>(v)];
      if ((lit > 0 && value) || (lit < 0 && !value)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

Cnf RandomKCnf(Rng& rng, int num_vars, int num_clauses, int k) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  // A clause needs k distinct variables; clamp rather than spin.
  k = std::min(k, num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    std::vector<bool> used(static_cast<size_t>(num_vars + 1), false);
    for (int j = 0; j < k; ++j) {
      int v;
      do {
        v = static_cast<int>(1 + rng.Below(static_cast<uint64_t>(num_vars)));
      } while (used[static_cast<size_t>(v)]);
      used[static_cast<size_t>(v)] = true;
      clause.push_back(rng.Chance(0.5) ? v : -v);
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool BruteForceSat(const Cnf& cnf) {
  const uint64_t total = uint64_t{1} << cnf.num_vars;
  std::vector<bool> assignment(static_cast<size_t>(cnf.num_vars + 1), false);
  for (uint64_t mask = 0; mask < total; ++mask) {
    for (int v = 1; v <= cnf.num_vars; ++v) {
      assignment[static_cast<size_t>(v)] = (mask >> (v - 1)) & 1;
    }
    if (cnf.IsSatisfiedBy(assignment)) return true;
  }
  return false;
}

}  // namespace regal
