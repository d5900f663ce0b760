#include "fmft/general.h"

#include <algorithm>

#include "util/stringutil.h"

namespace regal {

bool GeneralFormula::Holds(const FmftModel& model,
                           const std::map<std::string, size_t>& env) const {
  switch (kind_) {
    case GeneralKind::kPred: {
      size_t w = env.at(var_a_);
      for (size_t q = 0; q < model.predicate_names().size(); ++q) {
        if (model.predicate_names()[q] == predicate_) {
          return model.InPredicate(w, q);
        }
      }
      return false;
    }
    case GeneralKind::kPrefix:
      return model.ProperPrefix(env.at(var_a_), env.at(var_b_));
    case GeneralKind::kBefore:
      return model.LexBefore(env.at(var_a_), env.at(var_b_));
    case GeneralKind::kEquals:
      return env.at(var_a_) == env.at(var_b_);
    case GeneralKind::kNot:
      return !children_[0]->Holds(model, env);
    case GeneralKind::kAnd:
      return children_[0]->Holds(model, env) &&
             children_[1]->Holds(model, env);
    case GeneralKind::kOr:
      return children_[0]->Holds(model, env) ||
             children_[1]->Holds(model, env);
    case GeneralKind::kExists:
    case GeneralKind::kForall: {
      std::map<std::string, size_t> extended = env;
      for (size_t w = 0; w < model.NumWords(); ++w) {
        extended[var_a_] = w;
        bool holds = children_[0]->Holds(model, extended);
        if (kind_ == GeneralKind::kExists && holds) return true;
        if (kind_ == GeneralKind::kForall && !holds) return false;
      }
      return kind_ == GeneralKind::kForall;
    }
  }
  return false;
}

std::vector<size_t> GeneralFormula::Satisfiers(
    const FmftModel& model, const std::string& free_var) const {
  std::vector<size_t> out;
  std::map<std::string, size_t> env;
  for (size_t w = 0; w < model.NumWords(); ++w) {
    env[free_var] = w;
    if (Holds(model, env)) out.push_back(w);
  }
  return out;
}

void GeneralFormula::CollectFree(std::vector<std::string>* bound,
                                 std::vector<std::string>* out) const {
  auto is_bound = [&](const std::string& v) {
    return std::find(bound->begin(), bound->end(), v) != bound->end();
  };
  switch (kind_) {
    case GeneralKind::kPred:
      if (!is_bound(var_a_)) out->push_back(var_a_);
      break;
    case GeneralKind::kPrefix:
    case GeneralKind::kBefore:
    case GeneralKind::kEquals:
      if (!is_bound(var_a_)) out->push_back(var_a_);
      if (!is_bound(var_b_)) out->push_back(var_b_);
      break;
    case GeneralKind::kNot:
      children_[0]->CollectFree(bound, out);
      break;
    case GeneralKind::kAnd:
    case GeneralKind::kOr:
      children_[0]->CollectFree(bound, out);
      children_[1]->CollectFree(bound, out);
      break;
    case GeneralKind::kExists:
    case GeneralKind::kForall:
      bound->push_back(var_a_);
      children_[0]->CollectFree(bound, out);
      bound->pop_back();
      break;
  }
}

std::vector<std::string> GeneralFormula::FreeVariables() const {
  std::vector<std::string> bound;
  std::vector<std::string> out;
  CollectFree(&bound, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string GeneralFormula::ToString() const {
  switch (kind_) {
    case GeneralKind::kPred:
      return "Q_" + predicate_ + "(" + var_a_ + ")";
    case GeneralKind::kPrefix:
      return var_a_ + " sup " + var_b_;
    case GeneralKind::kBefore:
      return var_a_ + " < " + var_b_;
    case GeneralKind::kEquals:
      return var_a_ + " = " + var_b_;
    case GeneralKind::kNot:
      return "~(" + children_[0]->ToString() + ")";
    case GeneralKind::kAnd:
      return StrCat({"(", children_[0]->ToString(), " ^ ",
                     children_[1]->ToString(), ")"});
    case GeneralKind::kOr:
      return StrCat({"(", children_[0]->ToString(), " v ",
                     children_[1]->ToString(), ")"});
    case GeneralKind::kExists:
      return "(E " + var_a_ + ")(" + children_[0]->ToString() + ")";
    case GeneralKind::kForall:
      return "(A " + var_a_ + ")(" + children_[0]->ToString() + ")";
  }
  return "?";
}

GeneralFormulaPtr GeneralFormula::Pred(std::string predicate,
                                       std::string var) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kPred, std::move(predicate), std::move(var), "", {}));
}
GeneralFormulaPtr GeneralFormula::Prefix(std::string a, std::string b) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kPrefix, "", std::move(a), std::move(b), {}));
}
GeneralFormulaPtr GeneralFormula::Before(std::string a, std::string b) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kBefore, "", std::move(a), std::move(b), {}));
}
GeneralFormulaPtr GeneralFormula::Equals(std::string a, std::string b) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kEquals, "", std::move(a), std::move(b), {}));
}
GeneralFormulaPtr GeneralFormula::Not(GeneralFormulaPtr f) {
  return GeneralFormulaPtr(new GeneralFormula(GeneralKind::kNot, "", "", "",
                                              {std::move(f)}));
}
GeneralFormulaPtr GeneralFormula::And(GeneralFormulaPtr a,
                                      GeneralFormulaPtr b) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kAnd, "", "", "", {std::move(a), std::move(b)}));
}
GeneralFormulaPtr GeneralFormula::Or(GeneralFormulaPtr a,
                                     GeneralFormulaPtr b) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kOr, "", "", "", {std::move(a), std::move(b)}));
}
GeneralFormulaPtr GeneralFormula::Exists(std::string var,
                                         GeneralFormulaPtr f) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kExists, "", std::move(var), "", {std::move(f)}));
}
GeneralFormulaPtr GeneralFormula::Forall(std::string var,
                                         GeneralFormulaPtr f) {
  return GeneralFormulaPtr(new GeneralFormula(
      GeneralKind::kForall, "", std::move(var), "", {std::move(f)}));
}

GeneralFormulaPtr FromRestricted(const FormulaPtr& restricted,
                                 const std::string& free_var) {
  switch (restricted->kind()) {
    case FormulaKind::kPred:
      return GeneralFormula::Pred(restricted->predicate(), free_var);
    case FormulaKind::kOr:
      return GeneralFormula::Or(FromRestricted(restricted->left(), free_var),
                                FromRestricted(restricted->right(), free_var));
    case FormulaKind::kAnd:
      return GeneralFormula::And(
          FromRestricted(restricted->left(), free_var),
          FromRestricted(restricted->right(), free_var));
    case FormulaKind::kAndNot:
      return GeneralFormula::And(
          FromRestricted(restricted->left(), free_var),
          GeneralFormula::Not(
              FromRestricted(restricted->right(), free_var)));
    default: {
      // (∃y) φ1(x) ∧ φ2(y) ∧ relation. Fresh variable per nesting level.
      std::string y = free_var + "'";
      GeneralFormulaPtr relation;
      switch (restricted->kind()) {
        case FormulaKind::kExistsXsupY:
          relation = GeneralFormula::Prefix(free_var, y);
          break;
        case FormulaKind::kExistsYsupX:
          relation = GeneralFormula::Prefix(y, free_var);
          break;
        case FormulaKind::kExistsXbeforeY:
          relation = GeneralFormula::Before(free_var, y);
          break;
        default:
          relation = GeneralFormula::Before(y, free_var);
          break;
      }
      return GeneralFormula::Exists(
          y, GeneralFormula::And(
                 FromRestricted(restricted->left(), free_var),
                 GeneralFormula::And(FromRestricted(restricted->right(), y),
                                     std::move(relation))));
    }
  }
}

GeneralFormulaPtr DirectIncludingFormula(const std::string& r_name,
                                         const std::string& s_name) {
  using G = GeneralFormula;
  GeneralFormulaPtr no_between = G::Not(G::Exists(
      "z", G::And(G::Prefix("x", "z"), G::Prefix("z", "y"))));
  return G::And(
      G::Pred(r_name, "x"),
      G::Exists("y", G::And(G::Pred(s_name, "y"),
                            G::And(G::Prefix("x", "y"),
                                   std::move(no_between)))));
}

GeneralFormulaPtr BothIncludedFormula(const std::string& r_name,
                                      const std::string& s_name,
                                      const std::string& t_name) {
  using G = GeneralFormula;
  return G::And(
      G::Pred(r_name, "x"),
      G::Exists(
          "y",
          G::And(G::Pred(s_name, "y"),
                 G::And(G::Prefix("x", "y"),
                        G::Exists(
                            "z", G::And(G::Pred(t_name, "z"),
                                        G::And(G::Prefix("x", "z"),
                                               G::Before("y", "z"))))))));
}

}  // namespace regal
