#include "fmft/reduction3cnf.h"

#include "core/eval.h"
#include "doc/synthetic.h"
#include "util/stringutil.h"

namespace regal {

namespace {

std::string LiteralName(Literal lit) {
  int v = lit < 0 ? -lit : lit;
  return StrCat({lit > 0 ? "T" : "F", std::to_string(v)});
}

}  // namespace

CnfEmptinessReduction CnfToEmptinessExpr(const Cnf& cnf) {
  CnfEmptinessReduction out;
  out.names.push_back("A");
  for (int v = 1; v <= cnf.num_vars; ++v) {
    out.names.push_back(StrCat({"T", std::to_string(v)}));
    out.names.push_back(StrCat({"F", std::to_string(v)}));
  }

  ExprPtr a = Expr::Name("A");
  ExprPtr e = a;
  for (int v = 1; v <= cnf.num_vars; ++v) {
    ExprPtr has_t =
        Expr::Including(a, Expr::Name(StrCat({"T", std::to_string(v)})));
    ExprPtr has_f =
        Expr::Including(a, Expr::Name(StrCat({"F", std::to_string(v)})));
    // Exactly one value: (has_t ∪ has_f) − (has_t ∩ has_f). The shared
    // subtrees are evaluated once thanks to DAG memoization.
    ExprPtr exactly_one = Expr::Difference(Expr::Union(has_t, has_f),
                                           Expr::Intersect(has_t, has_f));
    e = Expr::Intersect(std::move(e), std::move(exactly_one));
  }
  for (const Clause& clause : cnf.clauses) {
    ExprPtr satisfied;
    for (Literal lit : clause) {
      ExprPtr term = Expr::Including(a, Expr::Name(LiteralName(lit)));
      satisfied = (satisfied == nullptr)
                      ? term
                      : Expr::Union(std::move(satisfied), std::move(term));
    }
    if (satisfied != nullptr) {
      e = Expr::Intersect(std::move(e), std::move(satisfied));
    }
  }
  out.expr = std::move(e);
  return out;
}

Instance AssignmentToInstance(const Cnf& cnf,
                              const std::vector<bool>& assignment) {
  NodeSpec a{"A", {}};
  for (int v = 1; v <= cnf.num_vars; ++v) {
    a.children.push_back(NodeSpec{
        StrCat({assignment[static_cast<size_t>(v)] ? "T" : "F",
                std::to_string(v)}),
        {}});
  }
  Instance instance = FromForest({a});
  // Define every reduction name, including the unused polarity leaves.
  for (int v = 1; v <= cnf.num_vars; ++v) {
    for (const char* polarity : {"T", "F"}) {
      std::string name = StrCat({polarity, std::to_string(v)});
      if (!instance.Has(name)) instance.SetRegionSet(name, RegionSet());
    }
  }
  return instance;
}

bool EmptinessByAssignmentSearch(const Cnf& cnf, const ExprPtr& expr,
                                 int64_t* checked) {
  if (checked != nullptr) *checked = 0;
  const uint64_t total = uint64_t{1} << cnf.num_vars;
  std::vector<bool> assignment(static_cast<size_t>(cnf.num_vars + 1), false);
  for (uint64_t mask = 0; mask < total; ++mask) {
    for (int v = 1; v <= cnf.num_vars; ++v) {
      assignment[static_cast<size_t>(v)] = (mask >> (v - 1)) & 1;
    }
    Instance instance = AssignmentToInstance(cnf, assignment);
    if (checked != nullptr) ++*checked;
    auto result = Evaluate(instance, expr);
    if (result.ok() && !result->empty()) return false;  // Witness found.
  }
  return true;
}

}  // namespace regal
