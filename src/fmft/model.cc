#include "fmft/model.h"

#include <algorithm>
#include <map>

#include "util/stringutil.h"

namespace regal {

bool IsProperPrefix(const std::string& u, const std::string& v) {
  return u.size() < v.size() && v.compare(0, u.size(), u) == 0;
}

bool IsLexBefore(const std::string& u, const std::string& v) {
  if (IsProperPrefix(u, v) || IsProperPrefix(v, u) || u == v) return false;
  return u < v;
}

Status FmftModel::AddWord(std::string word, const std::vector<int>& predicates) {
  for (const std::string& w : words_) {
    if (w == word) {
      return Status::AlreadyExists("word '" + word + "' already in the model");
    }
  }
  for (char c : word) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("word '" + word + "' is not binary");
    }
  }
  words_.push_back(std::move(word));
  membership_.emplace_back(predicate_names_.size(), false);
  for (int q : predicates) {
    membership_.back()[static_cast<size_t>(q)] = true;
  }
  return Status::OK();
}

bool FmftModel::ProperPrefix(size_t u, size_t v) const {
  return IsProperPrefix(words_[u], words_[v]);
}

bool FmftModel::LexBefore(size_t u, size_t v) const {
  return IsLexBefore(words_[u], words_[v]);
}

Status FmftModel::ValidateRepresentation() const {
  for (size_t i = 0; i < words_.size(); ++i) {
    int region_memberships = 0;
    for (int q = 0; q < num_region_names_; ++q) {
      if (membership_[i][static_cast<size_t>(q)]) ++region_memberships;
    }
    if (region_memberships != 1) {
      return Status::FailedPrecondition(
          "word '" + words_[i] + "' belongs to " +
          std::to_string(region_memberships) +
          " region predicates (must be exactly 1)");
    }
  }
  return Status::OK();
}

FmftModel ModelFromInstance(const Instance& instance,
                            const std::vector<Pattern>& patterns,
                            std::vector<Region>* region_of) {
  std::vector<std::string> predicate_names = instance.names();
  const int num_region_names = static_cast<int>(predicate_names.size());
  for (const Pattern& p : patterns) predicate_names.push_back(p.CacheKey());
  FmftModel model(std::move(predicate_names), num_region_names);

  const RegionTree& tree = instance.Tree();
  const size_t n = tree.regions.size();
  std::vector<std::string> words(n);
  std::vector<int> child_count(n, 0);
  int root_count = 0;
  if (region_of != nullptr) region_of->clear();
  for (size_t i = 0; i < n; ++i) {
    int parent = tree.parents[i];
    int index_among_siblings;
    std::string parent_word;
    if (parent < 0) {
      index_among_siblings = root_count++;
    } else {
      index_among_siblings = child_count[static_cast<size_t>(parent)]++;
      parent_word = words[static_cast<size_t>(parent)];
    }
    // The i-th child of w is w + "1"*i + "0": siblings are pairwise
    // lex-incomparable and ordered left to right; only the parent word is a
    // prefix.
    words[i] = parent_word + std::string(static_cast<size_t>(index_among_siblings), '1') + "0";
    std::vector<int> predicates{tree.name_ids[i]};
    for (size_t j = 0; j < patterns.size(); ++j) {
      if (instance.W(tree.regions[i], patterns[j])) {
        predicates.push_back(num_region_names + static_cast<int>(j));
      }
    }
    Status st = model.AddWord(words[i], predicates);
    (void)st;  // Words are unique by construction.
    if (region_of != nullptr) region_of->push_back(tree.regions[i]);
  }
  return model;
}

Result<Instance> InstanceFromModel(const FmftModel& model) {
  REGAL_RETURN_NOT_OK(model.ValidateRepresentation());
  const size_t n = model.NumWords();

  // Sort word indices in DFS preorder: ancestors first, siblings by lex.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (model.ProperPrefix(a, b)) return true;
    if (model.ProperPrefix(b, a)) return false;
    return model.Word(a) < model.Word(b);
  });

  // Stack sweep assigning offsets: a word's region closes after all words
  // it is a proper prefix of.
  std::map<std::string, std::vector<Region>> sets;
  std::vector<std::vector<Region>> pattern_regions(
      model.predicate_names().size());
  struct Open {
    size_t word;
    Offset left;
  };
  std::vector<Open> stack;
  Offset cursor = 0;
  auto close_top = [&](std::vector<Open>* s) {
    const Open& top = s->back();
    Region r{top.left, cursor++};
    for (size_t q = 0; q < model.predicate_names().size(); ++q) {
      if (model.InPredicate(top.word, q)) {
        if (static_cast<int>(q) < model.num_region_names()) {
          sets[model.predicate_names()[q]].push_back(r);
        } else {
          pattern_regions[q].push_back(r);
        }
      }
    }
    s->pop_back();
  };
  for (size_t idx : order) {
    while (!stack.empty() && !model.ProperPrefix(stack.back().word, idx)) {
      close_top(&stack);
    }
    stack.push_back(Open{idx, cursor++});
  }
  while (!stack.empty()) close_top(&stack);

  Instance instance;
  for (auto& [name, regions] : sets) {
    instance.SetRegionSet(name, RegionSet::FromUnsorted(std::move(regions)));
  }
  // Region names with no member words still exist (empty).
  for (int q = 0; q < model.num_region_names(); ++q) {
    const std::string& name =
        model.predicate_names()[static_cast<size_t>(q)];
    if (!instance.Has(name)) instance.SetRegionSet(name, RegionSet());
  }
  for (size_t q = static_cast<size_t>(model.num_region_names());
       q < model.predicate_names().size(); ++q) {
    REGAL_ASSIGN_OR_RETURN(
        Pattern p, Pattern::FromCacheKey(model.predicate_names()[q]));
    instance.SetSyntheticPattern(
        p, RegionSet::FromUnsorted(std::move(pattern_regions[q])));
  }
  return instance;
}

}  // namespace regal
