#include "fmft/formula.h"

#include <algorithm>

#include "util/stringutil.h"

namespace regal {

int RestrictedFormula::Size() const {
  if (kind_ == FormulaKind::kPred) return 0;
  return 1 + children_[0]->Size() + children_[1]->Size();
}

std::vector<size_t> RestrictedFormula::Evaluate(const FmftModel& model) const {
  const size_t n = model.NumWords();
  std::vector<bool> in(n, false);
  switch (kind_) {
    case FormulaKind::kPred: {
      int q = -1;
      for (size_t i = 0; i < model.predicate_names().size(); ++i) {
        if (model.predicate_names()[i] == predicate_) {
          q = static_cast<int>(i);
          break;
        }
      }
      if (q >= 0) {
        for (size_t w = 0; w < n; ++w) {
          in[w] = model.InPredicate(w, static_cast<size_t>(q));
        }
      }
      break;
    }
    case FormulaKind::kOr:
    case FormulaKind::kAnd:
    case FormulaKind::kAndNot: {
      std::vector<size_t> a = children_[0]->Evaluate(model);
      std::vector<size_t> b = children_[1]->Evaluate(model);
      std::vector<bool> in_b(n, false);
      for (size_t w : b) in_b[w] = true;
      if (kind_ == FormulaKind::kOr) {
        for (size_t w : a) in[w] = true;
        for (size_t w : b) in[w] = true;
      } else if (kind_ == FormulaKind::kAnd) {
        for (size_t w : a) in[w] = in_b[w];
      } else {
        for (size_t w : a) in[w] = !in_b[w];
      }
      break;
    }
    default: {
      std::vector<size_t> a = children_[0]->Evaluate(model);
      std::vector<size_t> b = children_[1]->Evaluate(model);
      for (size_t x : a) {
        for (size_t y : b) {
          bool related = false;
          switch (kind_) {
            case FormulaKind::kExistsXsupY:
              related = model.ProperPrefix(x, y);
              break;
            case FormulaKind::kExistsYsupX:
              related = model.ProperPrefix(y, x);
              break;
            case FormulaKind::kExistsXbeforeY:
              related = model.LexBefore(x, y);
              break;
            case FormulaKind::kExistsYbeforeX:
              related = model.LexBefore(y, x);
              break;
            default:
              break;
          }
          if (related) {
            in[x] = true;
            break;
          }
        }
      }
      break;
    }
  }
  std::vector<size_t> out;
  for (size_t w = 0; w < n; ++w) {
    if (in[w]) out.push_back(w);
  }
  return out;
}

std::string RestrictedFormula::ToStringImpl(const std::string& var,
                                            int depth) const {
  switch (kind_) {
    case FormulaKind::kPred:
      return "Q_" + predicate_ + "(" + var + ")";
    case FormulaKind::kOr:
      return StrCat({"(", children_[0]->ToStringImpl(var, depth), " v ",
                     children_[1]->ToStringImpl(var, depth), ")"});
    case FormulaKind::kAnd:
      return StrCat({"(", children_[0]->ToStringImpl(var, depth), " ^ ",
                     children_[1]->ToStringImpl(var, depth), ")"});
    case FormulaKind::kAndNot:
      return StrCat({"(", children_[0]->ToStringImpl(var, depth), " ^ ~",
                     children_[1]->ToStringImpl(var, depth), ")"});
    default: {
      std::string y = StrCat({"y", std::to_string(depth)});
      const char* rel = "";
      bool x_first = true;
      switch (kind_) {
        case FormulaKind::kExistsXsupY:
          rel = " sup ";
          break;
        case FormulaKind::kExistsYsupX:
          rel = " sup ";
          x_first = false;
          break;
        case FormulaKind::kExistsXbeforeY:
          rel = " < ";
          break;
        case FormulaKind::kExistsYbeforeX:
          rel = " < ";
          x_first = false;
          break;
        default:
          break;
      }
      std::string relation = x_first ? (var + rel + y) : (y + rel + var);
      return "(E " + y + ")(" + children_[0]->ToStringImpl(var, depth + 1) +
             " ^ " + children_[1]->ToStringImpl(y, depth + 1) + " ^ " +
             relation + ")";
    }
  }
}

std::string RestrictedFormula::ToString() const { return ToStringImpl("x", 0); }

FormulaPtr RestrictedFormula::Pred(std::string name) {
  return FormulaPtr(
      new RestrictedFormula(FormulaKind::kPred, std::move(name), {}));
}

FormulaPtr RestrictedFormula::Or(FormulaPtr a, FormulaPtr b) {
  return FormulaPtr(new RestrictedFormula(FormulaKind::kOr, "",
                                          {std::move(a), std::move(b)}));
}

FormulaPtr RestrictedFormula::And(FormulaPtr a, FormulaPtr b) {
  return FormulaPtr(new RestrictedFormula(FormulaKind::kAnd, "",
                                          {std::move(a), std::move(b)}));
}

FormulaPtr RestrictedFormula::AndNot(FormulaPtr a, FormulaPtr b) {
  return FormulaPtr(new RestrictedFormula(FormulaKind::kAndNot, "",
                                          {std::move(a), std::move(b)}));
}

FormulaPtr RestrictedFormula::Exists(FormulaKind kind, FormulaPtr a,
                                     FormulaPtr b) {
  return FormulaPtr(
      new RestrictedFormula(kind, "", {std::move(a), std::move(b)}));
}

}  // namespace regal
