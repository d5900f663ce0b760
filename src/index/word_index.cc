#include "index/word_index.h"

#include <algorithm>

#include "obs/counters.h"
#include "util/stringutil.h"

namespace regal {

bool WordIndex::Contains(Offset left, Offset right, const Pattern& p) const {
  // Default implementation in terms of Matches; subclasses may override
  // with early-exit variants.
  for (const Token& t : Matches(p)) {
    if (t.left >= left && t.right <= right) return true;
    if (t.left > right) break;
  }
  return false;
}

SuffixArrayWordIndex::SuffixArrayWordIndex(const Text* text)
    : text_(text),
      tokens_(Tokenize(text->content())),
      suffix_array_(ToLowerAscii(text->content())) {}

int32_t SuffixArrayWordIndex::TokenAt(int32_t pos) const {
  // Rightmost token with left <= pos.
  auto it = std::upper_bound(
      tokens_.begin(), tokens_.end(), pos,
      [](int32_t p, const Token& t) { return p < t.left; });
  if (it == tokens_.begin()) return -1;
  --it;
  if (it->right < pos) return -1;
  return static_cast<int32_t>(it - tokens_.begin());
}

std::vector<Token> SuffixArrayWordIndex::Matches(const Pattern& p) const {
  std::vector<Token> out;
  std::string_view original(text_->content());
  const std::string& core = p.LiteralCore();
  if (core.empty()) {
    // Body is all '?': scan tokens directly.
    for (const Token& t : tokens_) {
      if (p.MatchesToken(TokenText(original, t))) out.push_back(t);
    }
    if (obs::OpCounters* sink = obs::CountersSink()) {
      sink->index_probes += static_cast<int64_t>(tokens_.size());
      sink->comparisons += static_cast<int64_t>(tokens_.size());
    }
    return out;
  }
  // The suffix array is over lower-cased text, so search the lower-cased
  // core; case-sensitive patterns are re-verified on the original text by
  // MatchesToken below.
  std::vector<int32_t> occurrences =
      suffix_array_.Occurrences(ToLowerAscii(core));
  int64_t verifications = 0;
  int32_t last_token = -1;
  for (int32_t pos : occurrences) {
    int32_t token_id = TokenAt(pos);
    if (token_id < 0 || token_id == last_token) continue;
    last_token = token_id;
    const Token& t = tokens_[static_cast<size_t>(token_id)];
    ++verifications;
    if (p.MatchesToken(TokenText(original, t))) out.push_back(t);
  }
  if (obs::OpCounters* sink = obs::CountersSink()) {
    // One probe per suffix-array occurrence, one comparison per full-pattern
    // verification against a candidate token.
    sink->index_probes += static_cast<int64_t>(occurrences.size());
    sink->comparisons += verifications;
  }
  // Occurrences are in text order and each token is considered once (its
  // first core hit), so `out` is already sorted; dedup defensively.
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

InvertedWordIndex::InvertedWordIndex(const Text* text) : text_(text) {
  const std::string_view content = text->content();
  for (const Token& t : Tokenize(content)) {
    postings_[std::string(TokenText(content, t))].push_back(t);
    ++num_tokens_;
  }
}

std::vector<Token> InvertedWordIndex::Matches(const Pattern& p) const {
  std::vector<Token> out;
  int64_t probes = 0;
  int64_t comparisons = 0;
  const bool exact = p.anchored_front() && p.anchored_back() &&
                     !p.case_insensitive() &&
                     p.body().find('?') == std::string::npos;
  if (exact) {
    probes = 1;
    auto it = postings_.find(p.body());
    if (it != postings_.end()) out = it->second;
  } else {
    // Prefix patterns narrow the vocabulary scan to the keys that start
    // with the literal core, a contiguous run of the ordered map; all other
    // shapes scan the whole vocabulary (still never the raw text).
    const std::string& core = p.LiteralCore();
    const bool prefix = p.anchored_front() && !p.case_insensitive() &&
                        p.CoreOffsetInBody() == 0 && !core.empty();
    auto begin = prefix ? postings_.lower_bound(core) : postings_.begin();
    for (auto it = begin; it != postings_.end(); ++it) {
      if (prefix && !StartsWith(it->first, core)) break;
      ++probes;
      ++comparisons;
      if (p.MatchesToken(it->first)) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(out.begin(), out.end(), [](const Token& a, const Token& b) {
      return a.left != b.left ? a.left < b.left : a.right < b.right;
    });
  }
  if (obs::OpCounters* sink = obs::CountersSink()) {
    sink->index_probes += probes;
    sink->comparisons += comparisons;
  }
  return out;
}

}  // namespace regal
