#include "streams.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <unordered_set>

#include "doc/dictionary.h"
#include "stats.h"

namespace regal {
namespace e2e {

namespace {

// The generated dictionary schema (doc/dictionary.h) minus the single-region
// root, which makes no interesting operand.
struct NameInfo {
  const char* name;
  const char* parent;  // nullptr: top level (the root is left out).
};
constexpr NameInfo kSchema[] = {
    {"entry", nullptr},   {"headword", "entry"}, {"pos", "entry"},
    {"sense", "entry"},   {"def", "sense"},      {"quote", "sense"},
    {"date", "quote"},    {"author", "quote"},   {"qtext", "quote"},
};
const char* const kAuthors[] = {"CHAUCER", "SHAKESPEARE", "MILTON",
                                "JOHNSON", "AUSTEN",      "DICKENS"};
const char* const kPos[] = {"n", "v", "adj", "adv"};

const char* ParentOf(const std::string& name) {
  for (const NameInfo& info : kSchema) {
    if (name == info.name) return info.parent;
  }
  return nullptr;
}

std::vector<std::string> Ancestors(const std::string& name) {
  std::vector<std::string> out;
  for (const char* p = ParentOf(name); p != nullptr; p = ParentOf(p)) {
    out.emplace_back(p);
  }
  return out;
}

bool IsAncestor(const std::string& maybe_ancestor, const std::string& name) {
  for (const std::string& a : Ancestors(name)) {
    if (a == maybe_ancestor) return true;
  }
  return false;
}

std::vector<std::string> Descendants(const std::string& name) {
  std::vector<std::string> out;
  for (const NameInfo& info : kSchema) {
    if (IsAncestor(name, info.name)) out.emplace_back(info.name);
  }
  return out;
}

std::vector<std::string> Children(const std::string& name) {
  std::vector<std::string> out;
  for (const NameInfo& info : kSchema) {
    if (info.parent != nullptr && name == info.parent) {
      out.emplace_back(info.name);
    }
  }
  return out;
}

// Whether tokens of `leaf` lie inside `target` regions.
bool Covers(const std::string& target, const std::string& leaf) {
  return target == leaf || IsAncestor(target, leaf);
}

}  // namespace

QueryGenerator::QueryGenerator(uint64_t seed, double extended_share)
    : rng_(seed), extended_share_(extended_share) {}

std::string QueryGenerator::Word(const std::string& target) {
  // Candidate word families whose tokens occur inside `target`.
  std::vector<int> families;
  if (Covers(target, "def") || Covers(target, "qtext")) {
    families.insert(families.end(), {0, 0, 1});  // termN twice as likely.
  }
  if (Covers(target, "author")) families.push_back(2);
  if (Covers(target, "date")) families.push_back(3);
  if (Covers(target, "headword")) families.push_back(4);
  if (Covers(target, "pos")) families.push_back(5);
  switch (families[rng_.Below(families.size())]) {
    case 0:
      return "term" + std::to_string(rng_.Below(120));
    case 1:
      return "term" + std::to_string(2 + rng_.Below(10)) + "*";
    case 2:
      return kAuthors[rng_.Below(6)];
    case 3:
      return "1" + std::to_string(4 + rng_.Below(5)) + "*";
    case 4:
      return "hw" + std::to_string(rng_.Below(2000));
    default:
      return kPos[rng_.Below(4)];
  }
}

std::string QueryGenerator::Generate(const std::string& target, int budget) {
  auto select = [&](const std::string& operand) {
    return "(" + operand + " matching \"" + Word(target) + "\")";
  };
  if (budget <= 0) return rng_.Chance(0.5) ? target : select(target);
  // The left operand of a structural operator: the bare name, a selection
  // on it, or (rarely) a nested expression of the same type.
  auto left = [&]() -> std::string {
    if (budget >= 2 && rng_.Chance(0.15)) return Generate(target, budget - 2);
    return rng_.Chance(0.6) ? target : select(target);
  };
  const std::vector<std::string> ancestors = Ancestors(target);
  const std::vector<std::string> descendants = Descendants(target);
  if (rng_.Chance(extended_share_)) {
    const std::vector<std::string> children = Children(target);
    const char* parent = ParentOf(target);
    const uint64_t pick = rng_.Below(3);
    if (pick == 0 && !children.empty()) {
      return "(" + left() + " dincluding " +
             Generate(children[rng_.Below(children.size())], budget - 1) + ")";
    }
    if (pick == 1 && parent != nullptr) {
      return "(" + left() + " dwithin " + Generate(parent, budget - 1) + ")";
    }
    if (descendants.size() >= 2) {
      return "bi(" + left() + ", " +
             Generate(descendants[rng_.Below(descendants.size())],
                      budget - 1) +
             ", " +
             Generate(descendants[rng_.Below(descendants.size())],
                      budget - 1) +
             ")";
    }
  }
  for (;;) {
    switch (rng_.Below(6)) {
      case 0:
        return select(Generate(target, budget - 1));
      case 1:
        if (ancestors.empty()) continue;
        return "(" + left() + " within " +
               Generate(ancestors[rng_.Below(ancestors.size())], budget - 1) +
               ")";
      case 2:
        if (descendants.empty()) continue;
        return "(" + left() + " including " +
               Generate(descendants[rng_.Below(descendants.size())],
                        budget - 1) +
               ")";
      case 3: {
        const NameInfo& other = kSchema[rng_.Below(std::size(kSchema))];
        return "(" + left() + (rng_.Chance(0.5) ? " before " : " after ") +
               Generate(other.name, budget - 1) + ")";
      }
      default: {
        const char* ops[] = {" | ", " & ", " - "};
        return "(" + Generate(target, budget - 1) + ops[rng_.Below(3)] +
               Generate(target, budget - 1) + ")";
      }
    }
  }
}

std::string QueryGenerator::Next() {
  const NameInfo& target = kSchema[rng_.Below(std::size(kSchema))];
  return Generate(target.name, 1 + static_cast<int>(rng_.Below(2)));
}

std::vector<std::string> DistinctQueries(uint64_t seed, size_t count,
                                         double extended_share) {
  QueryGenerator generator(seed, extended_share);
  std::vector<std::string> out;
  out.reserve(count);
  std::unordered_set<std::string> seen;
  while (out.size() < count) {
    std::string query = generator.Next();
    // Every query carries an operator: bare names are index scans that
    // bypass the result cache entirely.
    if (query.find(' ') == std::string::npos) continue;
    if (seen.insert(query).second) out.push_back(std::move(query));
  }
  return out;
}

std::vector<std::string> HotSet(
    uint64_t seed, size_t per_class, double extended_share,
    const std::function<int64_t(const std::string&)>& rows) {
  // Upper bounds of the size classes; four queries land in each.
  constexpr int64_t kClassBound[] = {16,   64,   256,  1024,
                                     2048, 4096, 6144,
                                     std::numeric_limits<int64_t>::max()};
  constexpr int kMaxCandidates = 3000;
  QueryGenerator generator(seed, extended_share);
  std::vector<std::vector<std::string>> classes(std::size(kClassBound));
  std::vector<std::string> spare;
  std::unordered_set<std::string> seen;
  size_t filled = 0;
  for (int tries = 0;
       tries < kMaxCandidates && filled < std::size(kClassBound) * per_class;
       ++tries) {
    std::string query = generator.Next();
    if (query.find(' ') == std::string::npos || !seen.insert(query).second) {
      continue;
    }
    const int64_t n = rows(query);
    if (n < 0) continue;
    size_t c = 0;
    while (n >= kClassBound[c]) ++c;
    if (classes[c].size() < per_class) {
      classes[c].push_back(std::move(query));
      ++filled;
    } else {
      spare.push_back(std::move(query));
    }
  }
  std::vector<std::string> out;
  for (auto& c : classes) {
    // A class the corpus cannot fill takes spare candidates instead.
    while (c.size() < per_class && !spare.empty()) {
      c.push_back(std::move(spare.back()));
      spare.pop_back();
    }
    for (std::string& q : c) out.push_back(std::move(q));
  }
  return out;
}

std::string MarkName(int k) { return "mark" + std::to_string(k); }
std::string AddName(int j) { return "add" + std::to_string(j); }

std::vector<std::string> MarkQueries(uint64_t seed, int marks, size_t count) {
  Rng rng(seed);
  std::vector<std::string> out;
  std::set<std::string> seen;
  constexpr int kTemplates = 11;
  for (size_t i = 0; out.size() < count; ++i) {
    const std::string m = MarkName(static_cast<int>(rng.Below(marks)));
    const std::string term = "term" + std::to_string(rng.Below(120));
    const std::string prefix = "term" + std::to_string(2 + rng.Below(10)) + "*";
    const std::string author = kAuthors[rng.Below(6)];
    std::string query;
    // Templates in turn, so every seed reads the marks the same ways.
    switch (i % kTemplates) {
      case 0: query = "(def including " + m + ")"; break;
      case 1: query = "(qtext including " + m + ")"; break;
      case 2: query = "(" + m + " within quote)"; break;
      case 3: query = "(" + m + " within (sense within entry))"; break;
      case 4: query = "(sense including (" + m + " within def))"; break;
      case 5:
        query = "(quote including (" + m + " matching \"" + prefix + "\"))";
        break;
      case 6: query = "(entry including " + m + ")"; break;
      case 7:
        query = "((def including " + m + ") | (qtext including " + m + "))";
        break;
      case 8:
        query = "(" + m + " within (quote including (author matching \"" +
                author + "\")))";
        break;
      case 9:
        query = "((qtext including " + m + ") - (qtext matching \"" + term +
                "\"))";
        break;
      default:
        query = "(" + m + " before (def matching \"" + term + "\"))";
        break;
    }
    if (seen.insert(query).second) out.push_back(std::move(query));
  }
  return out;
}

std::vector<std::string> StaticQueries(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<std::string> out;
  std::set<std::string> seen;
  constexpr int kTemplates = 11;
  auto quoted = [](const std::string& word) { return "\"" + word + "\""; };
  for (size_t i = 0; out.size() < count; ++i) {
    const std::string term = quoted("term" + std::to_string(rng.Below(120)));
    const std::string other = quoted("term" + std::to_string(rng.Below(120)));
    const std::string author = quoted(kAuthors[rng.Below(6)]);
    const std::string year = quoted(std::to_string(1400 + rng.Below(500)));
    std::string query;
    switch (i % kTemplates) {
      case 0:
        query = "(quote including (author matching " + author + "))";
        break;
      case 1:
        query = "(sense including (def matching " + term + "))";
        break;
      case 2:
        query = "(qtext within (quote including (date matching " + year +
                ")))";
        break;
      case 3:
        query = "(entry including (sense including (def matching " + term +
                ")))";
        break;
      case 4:
        query = "((def matching " + term + ") | (def matching " + other + "))";
        break;
      case 5:
        query = "((quote matching " + author + ") - (quote matching " + term +
                "))";
        break;
      case 6:
        query = "(headword within (entry including (def matching " + term +
                ")))";
        break;
      case 7:
        query = "(def before (quote matching " + term + "))";
        break;
      case 8:
        query = "(qtext after (def matching " + term + "))";
        break;
      case 9:
        query = "((sense matching " + term +
                ") & (sense including (author matching " + author + ")))";
        break;
      default:
        query = "(author within (quote including (qtext matching " + term +
                ")))";
        break;
    }
    if (seen.insert(query).second) out.push_back(std::move(query));
  }
  return out;
}

int MarkOf(const std::string& query, int marks) {
  for (size_t pos = query.find("mark"); pos != std::string::npos;
       pos = query.find("mark", pos + 1)) {
    size_t end = pos + 4;
    while (end < query.size() && query[end] >= '0' && query[end] <= '9') {
      ++end;
    }
    if (end == pos + 4) continue;
    const int k = std::stoi(query.substr(pos + 4, end - pos - 4));
    if (k < marks) return k;
  }
  return -1;
}

std::vector<uint32_t> IndexSequence(uint64_t seed, size_t n, size_t choices) {
  Rng rng(seed);
  std::vector<uint32_t> out(n);
  for (uint32_t& index : out) index = static_cast<uint32_t>(rng.Below(choices));
  return out;
}

Digraph IngestRig(int marks, int adds) {
  Digraph rig = DictionaryRig();
  auto nest = [&rig](const std::string& name) {
    rig.AddEdge("def", name);
    rig.AddEdge("qtext", name);
  };
  for (int k = 0; k < marks; ++k) nest(MarkName(k));
  for (int j = 0; j < adds; ++j) nest(AddName(j));
  return rig;
}

MutationPlan PlanMutations(const RegionSet& leaves, uint64_t seed, int marks,
                           size_t count) {
  constexpr size_t kLeavesPerAdd = 4;
  const size_t classes = static_cast<size_t>(marks) + 1;
  // Leaves of at least three bytes have a strict sub-span.
  std::vector<std::vector<Region>> by_class(classes);
  size_t usable = 0;
  for (const Region& leaf : leaves) {
    if (leaf.right - leaf.left < 2) continue;
    by_class[usable++ % classes].push_back(leaf);
  }
  Rng rng(seed);
  auto sub_span = [&rng](const Region& leaf) {
    // left < a <= b < right: strictly inside the leaf.
    const Offset a =
        leaf.left + 1 +
        static_cast<Offset>(rng.Below(static_cast<uint64_t>(
            leaf.right - leaf.left - 1)));
    const Offset b = a + static_cast<Offset>(rng.Below(
                             static_cast<uint64_t>(leaf.right - a)));
    return Region{a, b};
  };
  auto mark_set = [&](int k) {
    const std::vector<Region>& pool = by_class[static_cast<size_t>(k)];
    const size_t want = std::min<size_t>(pool.size(), 16 + rng.Below(48));
    std::set<size_t> picked;
    while (picked.size() < want) picked.insert(rng.Below(pool.size()));
    std::vector<Region> regions;
    for (size_t i : picked) regions.push_back(sub_span(pool[i]));
    return RegionSet::FromUnsorted(std::move(regions));
  };

  MutationPlan plan;
  plan.marks = marks;
  for (int k = 0; k < marks; ++k) {
    plan.initial.push_back(
        recovery::Mutation::DefineRegions(MarkName(k), mark_set(k)));
  }
  const std::vector<Region>& reserved = by_class.back();
  const int max_adds = static_cast<int>(reserved.size() / kLeavesPerAdd);
  for (size_t i = 0; i < count; ++i) {
    if (i % 8 == 7 && plan.adds < max_adds) {
      std::vector<Region> regions;
      for (size_t l = 0; l < kLeavesPerAdd; ++l) {
        const size_t leaf = static_cast<size_t>(plan.adds) * kLeavesPerAdd + l;
        regions.push_back(sub_span(reserved[leaf]));
      }
      plan.stream.push_back(recovery::Mutation::DefineRegions(
          AddName(plan.adds++), RegionSet::FromUnsorted(std::move(regions))));
      continue;
    }
    const int k = static_cast<int>(rng.Below(static_cast<uint64_t>(marks)));
    plan.stream.push_back(
        recovery::Mutation::ReplaceRegions(MarkName(k), mark_set(k)));
  }
  return plan;
}

int64_t PayloadBytes(const recovery::Mutation& m) {
  return static_cast<int64_t>(m.name.size() +
                              m.regions.size() * 2 * sizeof(Offset));
}

uint64_t DigestQueries(const std::vector<std::string>& queries,
                       uint64_t seed) {
  uint64_t h = Fnv1a("queries", seed);
  for (const std::string& q : queries) {
    h = Fnv1a(q, h);
    h = Fnv1a(std::string_view("\n", 1), h);
  }
  return h;
}

uint64_t DigestIndices(const std::vector<uint32_t>& indices, uint64_t seed) {
  uint64_t h = Fnv1a("indices", seed);
  for (uint32_t index : indices) {
    char bytes[sizeof(index)];
    std::memcpy(bytes, &index, sizeof(index));
    h = Fnv1a(std::string_view(bytes, sizeof(bytes)), h);
  }
  return h;
}

uint64_t DigestMutations(const std::vector<recovery::Mutation>& mutations,
                         uint64_t seed) {
  uint64_t h = Fnv1a("mutations", seed);
  for (const recovery::Mutation& m : mutations) {
    const char kind = static_cast<char>(m.kind);
    h = Fnv1a(std::string_view(&kind, 1), h);
    h = Fnv1a(m.name, h);
    for (const Region& r : m.regions) {
      char bytes[2 * sizeof(Offset)];
      std::memcpy(bytes, &r.left, sizeof(Offset));
      std::memcpy(bytes + sizeof(Offset), &r.right, sizeof(Offset));
      h = Fnv1a(std::string_view(bytes, sizeof(bytes)), h);
    }
  }
  return h;
}

}  // namespace e2e
}  // namespace regal
