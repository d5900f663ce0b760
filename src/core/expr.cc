#include "core/expr.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/stringutil.h"

namespace regal {

bool IsStructuralOp(OpKind kind) {
  switch (kind) {
    case OpKind::kIncluding:
    case OpKind::kIncluded:
    case OpKind::kPrecedes:
    case OpKind::kFollows:
    case OpKind::kDirectIncluding:
    case OpKind::kDirectIncluded:
      return true;
    default:
      return false;
  }
}

const char* OpKindToken(OpKind kind) {
  switch (kind) {
    case OpKind::kName:
      return "<name>";
    case OpKind::kUnion:
      return "|";
    case OpKind::kIntersect:
      return "&";
    case OpKind::kDifference:
      return "-";
    case OpKind::kIncluding:
      return "including";
    case OpKind::kIncluded:
      return "within";
    case OpKind::kPrecedes:
      return "before";
    case OpKind::kFollows:
      return "after";
    case OpKind::kSelect:
      return "matching";
    case OpKind::kDirectIncluding:
      return "dincluding";
    case OpKind::kDirectIncluded:
      return "dwithin";
    case OpKind::kBothIncluded:
      return "bi";
    case OpKind::kWordMatch:
      return "word";
  }
  return "?";
}

int Expr::NumOps() const {
  int total = (kind_ == OpKind::kName) ? 0 : 1;  // kWordMatch counts 1.
  for (const ExprPtr& c : children_) total += c->NumOps();
  return total;
}

int Expr::NumOrderOps() const {
  int total =
      (kind_ == OpKind::kPrecedes || kind_ == OpKind::kFollows) ? 1 : 0;
  for (const ExprPtr& c : children_) total += c->NumOrderOps();
  return total;
}

namespace {

void CollectNames(const Expr& e, std::vector<std::string>* out,
                  std::set<std::string>* seen) {
  if (e.kind() == OpKind::kName) {
    if (seen->insert(e.name()).second) out->push_back(e.name());
  }
  for (const ExprPtr& c : e.children()) CollectNames(*c, out, seen);
}

void CollectPatterns(const Expr& e, std::vector<Pattern>* out,
                     std::set<std::string>* seen) {
  if (e.kind() == OpKind::kSelect || e.kind() == OpKind::kWordMatch) {
    if (seen->insert(e.pattern().CacheKey()).second) out->push_back(e.pattern());
  }
  for (const ExprPtr& c : e.children()) CollectPatterns(*c, out, seen);
}

}  // namespace

std::vector<std::string> Expr::NamesUsed() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  CollectNames(*this, &out, &seen);
  return out;
}

std::vector<Pattern> Expr::PatternsUsed() const {
  std::vector<Pattern> out;
  std::set<std::string> seen;
  CollectPatterns(*this, &out, &seen);
  return out;
}

bool Expr::IsBaseAlgebra() const {
  if (kind_ == OpKind::kDirectIncluding || kind_ == OpKind::kDirectIncluded ||
      kind_ == OpKind::kBothIncluded || kind_ == OpKind::kWordMatch) {
    return false;
  }
  for (const ExprPtr& c : children_) {
    if (!c->IsBaseAlgebra()) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case OpKind::kName:
      return name_;
    case OpKind::kSelect:
      return StrCat({"(", children_[0]->ToString(), " matching ",
                     pattern_->case_insensitive() ? "~" : "", "\"",
                     pattern_->ToString(), "\")"});
    case OpKind::kBothIncluded:
      return "bi(" + children_[0]->ToString() + ", " +
             children_[1]->ToString() + ", " + children_[2]->ToString() + ")";
    case OpKind::kWordMatch:
      return std::string("word ") + (pattern_->case_insensitive() ? "~" : "") +
             "\"" + pattern_->ToString() + "\"";
    default:
      return StrCat({"(", children_[0]->ToString(), " ", OpKindToken(kind_),
                     " ", children_[1]->ToString(), ")"});
  }
}

bool Expr::Equals(const Expr& other) const {
  if (this == &other) return true;  // Shared DAG subtrees compare in O(1).
  if (kind_ != other.kind_) return false;
  if (kind_ == OpKind::kName) return name_ == other.name_;
  if ((kind_ == OpKind::kSelect || kind_ == OpKind::kWordMatch) &&
      !(pattern_->CacheKey() == other.pattern_->CacheKey())) {
    return false;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

ExprPtr Expr::Name(std::string name) {
  return ExprPtr(new Expr(OpKind::kName, std::move(name), std::nullopt, {}));
}

ExprPtr Expr::Binary(OpKind kind, ExprPtr a, ExprPtr b) {
  return ExprPtr(new Expr(kind, "", std::nullopt,
                          {std::move(a), std::move(b)}));
}

ExprPtr Expr::Union(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kUnion, std::move(a), std::move(b));
}
ExprPtr Expr::Intersect(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kIntersect, std::move(a), std::move(b));
}
ExprPtr Expr::Difference(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kDifference, std::move(a), std::move(b));
}
ExprPtr Expr::Including(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kIncluding, std::move(a), std::move(b));
}
ExprPtr Expr::Included(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kIncluded, std::move(a), std::move(b));
}
ExprPtr Expr::Precedes(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kPrecedes, std::move(a), std::move(b));
}
ExprPtr Expr::Follows(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kFollows, std::move(a), std::move(b));
}
ExprPtr Expr::DirectIncluding(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kDirectIncluding, std::move(a), std::move(b));
}
ExprPtr Expr::DirectIncluded(ExprPtr a, ExprPtr b) {
  return Binary(OpKind::kDirectIncluded, std::move(a), std::move(b));
}

ExprPtr Expr::Select(Pattern p, ExprPtr e) {
  return ExprPtr(
      new Expr(OpKind::kSelect, "", std::move(p), {std::move(e)}));
}

ExprPtr Expr::WordMatch(Pattern p) {
  return ExprPtr(new Expr(OpKind::kWordMatch, "", std::move(p), {}));
}

ExprPtr Expr::BothIncluded(ExprPtr r, ExprPtr s, ExprPtr t) {
  return ExprPtr(new Expr(OpKind::kBothIncluded, "", std::nullopt,
                          {std::move(r), std::move(s), std::move(t)}));
}

ExprPtr Expr::Chain(OpKind op, const std::vector<std::string>& names) {
  ExprPtr e = Name(names.back());
  for (size_t i = names.size() - 1; i-- > 0;) {
    e = Binary(op, Name(names[i]), std::move(e));
  }
  return e;
}

// --- Canonical form & fingerprint ---

namespace {

// splitmix64 finalizer: cheap, well-distributed mixing for the fingerprint.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Combine(uint64_t h, uint64_t x) { return Mix(h ^ Mix(x)); }

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the bytes.
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

/// Non-owning alias, for fingerprinting from a bare `this`. The resulting
/// pointers never escape the member-function call that made them.
ExprPtr BorrowExpr(const Expr* e) { return ExprPtr(ExprPtr(), e); }

// Appends the operands of a right-grouped canonical `op` chain (or the
// single node itself when it is not an `op` node).
void AppendChainOperands(OpKind op, const ExprPtr& e,
                         std::vector<ExprPtr>* out) {
  ExprPtr node = e;
  while (node->kind() == op) {
    out->push_back(node->child(0));
    node = node->child(1);
  }
  out->push_back(std::move(node));
}

}  // namespace

ExprPtr ExprCanonicalizer::Canonical(const ExprPtr& e) {
  auto it = canon_.find(e.get());
  if (it != canon_.end()) return it->second;
  ExprPtr result;
  switch (e->kind()) {
    case OpKind::kName:
    case OpKind::kWordMatch:
      result = e;
      break;
    case OpKind::kSelect: {
      ExprPtr child = Canonical(e->child(0));
      if (child->kind() == OpKind::kSelect &&
          child->pattern().CacheKey() == e->pattern().CacheKey()) {
        // σ_p is a filter: σ_p∘σ_p = σ_p (the optimizer's select-dedup).
        result = child;
      } else if (child.get() == e->child(0).get()) {
        result = e;
      } else {
        result = Expr::Select(e->pattern(), std::move(child));
      }
      break;
    }
    case OpKind::kUnion:
    case OpKind::kIntersect: {
      // Flatten the same-operator subtree (associativity), canonicalize
      // every operand, drop duplicates (idempotence) and re-group to the
      // right in fingerprint order (commutativity).
      std::vector<ExprPtr> operands;
      AppendChainOperands(e->kind(), Canonical(e->child(0)), &operands);
      AppendChainOperands(e->kind(), Canonical(e->child(1)), &operands);
      std::vector<std::pair<uint64_t, ExprPtr>> keyed;
      keyed.reserve(operands.size());
      for (ExprPtr& op : operands) {
        uint64_t h = HashCanonical(op);
        keyed.emplace_back(h, std::move(op));
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [](const auto& a, const auto& b) {
                         if (a.first != b.first) return a.first < b.first;
                         return a.second->ToString() < b.second->ToString();
                       });
      std::vector<ExprPtr> unique;
      unique.reserve(keyed.size());
      for (auto& [h, op] : keyed) {
        if (!unique.empty() && h == HashCanonical(unique.back()) &&
            unique.back()->Equals(*op)) {
          continue;
        }
        unique.push_back(std::move(op));
      }
      result = unique.back();
      for (size_t i = unique.size() - 1; i-- > 0;) {
        result = Expr::Binary(e->kind(), unique[i], std::move(result));
      }
      break;
    }
    case OpKind::kBothIncluded: {
      ExprPtr r = Canonical(e->child(0));
      ExprPtr s = Canonical(e->child(1));
      ExprPtr t = Canonical(e->child(2));
      if (r.get() == e->child(0).get() && s.get() == e->child(1).get() &&
          t.get() == e->child(2).get()) {
        result = e;
      } else {
        result = Expr::BothIncluded(std::move(r), std::move(s), std::move(t));
      }
      break;
    }
    default: {  // Non-commutative binary operators.
      ExprPtr a = Canonical(e->child(0));
      ExprPtr b = Canonical(e->child(1));
      if (a.get() == e->child(0).get() && b.get() == e->child(1).get()) {
        result = e;
      } else {
        result = Expr::Binary(e->kind(), std::move(a), std::move(b));
      }
      break;
    }
  }
  canon_.emplace(e.get(), result);
  return result;
}

uint64_t ExprCanonicalizer::HashCanonical(const ExprPtr& canonical) {
  auto it = hashes_.find(canonical.get());
  if (it != hashes_.end()) return it->second;
  uint64_t h = Mix(static_cast<uint64_t>(canonical->kind()) + 1);
  switch (canonical->kind()) {
    case OpKind::kName:
      h = Combine(h, HashString(canonical->name()));
      break;
    case OpKind::kSelect:
    case OpKind::kWordMatch:
      h = Combine(h, HashString(canonical->pattern().CacheKey()));
      break;
    default:
      break;
  }
  for (const ExprPtr& c : canonical->children()) {
    h = Combine(h, HashCanonical(c));
  }
  hashes_.emplace(canonical.get(), h);
  return h;
}

uint64_t ExprCanonicalizer::Hash(const ExprPtr& e) {
  return HashCanonical(Canonical(e));
}

uint64_t Expr::CanonicalHash() const {
  ExprCanonicalizer canonicalizer;
  return canonicalizer.Hash(BorrowExpr(this));
}

bool Expr::CanonicalEquals(const Expr& other) const {
  if (this == &other) return true;
  ExprCanonicalizer canonicalizer;
  ExprPtr a = canonicalizer.Canonical(BorrowExpr(this));
  ExprPtr b = canonicalizer.Canonical(BorrowExpr(&other));
  return a->Equals(*b);
}

ExprPtr Expr::Canonicalize(const ExprPtr& e) {
  ExprCanonicalizer canonicalizer;
  return canonicalizer.Canonical(e);
}

}  // namespace regal
