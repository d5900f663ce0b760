#include "index/word_index.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>

#include "obs/counters.h"
#include "util/interner.h"
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

namespace {

// Joins the words of the vocabulary; tokens are [A-Za-z0-9_] only, so no
// word contains it.
constexpr char kJoin = '\0';

// Sorts `tokens` by left endpoint, each of which is below `limit`: a
// least-significant-digit radix sort, so the cost is linear in the number of
// tokens however many posting lists they came from. The passes split the
// bits of `limit` evenly, at most kMaxDigitBits each, so a short text gets
// small digits.
void SortByLeft(std::vector<Token>* tokens, Offset limit) {
  constexpr int kMaxDigitBits = 11;
  const int bits = std::bit_width(static_cast<uint32_t>(limit));
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  if (passes == 0) return;
  const int digit_bits = (bits + passes - 1) / passes;
  const uint32_t digit_mask = (1u << digit_bits) - 1;
  std::vector<Token> sorted(tokens->size());
  std::vector<size_t> starts(size_t{1} << digit_bits);
  for (int shift = 0; shift < bits; shift += digit_bits) {
    auto digit = [shift, digit_mask](const Token& t) {
      return (static_cast<uint32_t>(t.left) >> shift) & digit_mask;
    };
    std::fill(starts.begin(), starts.end(), 0);
    for (const Token& t : *tokens) ++starts[digit(t)];
    size_t sum = 0;
    for (size_t& start : starts) sum += std::exchange(start, sum);
    for (const Token& t : *tokens) sorted[starts[digit(t)]++] = t;
    tokens->swap(sorted);
  }
}

}  // namespace

SuffixArrayWordIndex::SuffixArrayWordIndex(const Text* text) : text_(text) {
  const std::string_view content = text->content();
  // One scan: each token's left offset and word id, ids in order of first
  // occurrence.
  struct Occurrence {
    Offset left;
    int32_t word;
  };
  std::vector<Occurrence> occurrences;
  Interner words;
  ForEachToken(content, [&](const Token& t) {
    occurrences.push_back(
        Occurrence{t.left, words.Intern(TokenText(content, t))});
  });
  const auto num_words = static_cast<size_t>(words.size());
  std::string joined;
  word_starts_.reserve(num_words + 1);
  for (size_t w = 0; w < num_words; ++w) {
    word_starts_.push_back(static_cast<int32_t>(joined.size()));
    for (char c : words.key(static_cast<int32_t>(w))) joined += ToLowerAscii(c);
    joined += kJoin;
  }
  word_starts_.push_back(static_cast<int32_t>(joined.size()));
  // A counting sort of the left offsets by word; it is stable, so each
  // posting list stays in text order.
  offsets_.assign(num_words + 1, 0);
  for (const Occurrence& o : occurrences) {
    ++offsets_[static_cast<size_t>(o.word) + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<int32_t> next(offsets_.begin(), offsets_.end() - 1);
  postings_.resize(occurrences.size());
  for (const Occurrence& o : occurrences) {
    postings_[static_cast<size_t>(next[static_cast<size_t>(o.word)]++)] =
        o.left;
  }
  vocabulary_ = SuffixArray(std::move(joined));
}

std::vector<Token> SuffixArrayWordIndex::Matches(const Pattern& p) const {
  const std::string_view content(text_->content());
  const int32_t num_words = static_cast<int32_t>(offsets_.size()) - 1;
  std::vector<int32_t> candidates;
  int64_t probes = 0;
  if (p.LiteralCore().empty()) {
    // Body is all '?': check every word.
    candidates.resize(static_cast<size_t>(num_words));
    std::iota(candidates.begin(), candidates.end(), 0);
    probes = num_words;
  } else {
    // The vocabulary is lower-cased, so search the lower-cased core;
    // case-sensitive patterns are checked on each word's original text below.
    const auto [lo, hi] = vocabulary_.EqualRange(ToLowerAscii(p.LiteralCore()));
    probes = hi - lo;
    candidates.reserve(static_cast<size_t>(hi - lo));
    for (int32_t slot = lo; slot < hi; ++slot) {
      // The word whose entry holds the suffix's first byte.
      const int32_t pos = vocabulary_.sa()[static_cast<size_t>(slot)];
      candidates.push_back(static_cast<int32_t>(
          std::upper_bound(word_starts_.begin(), word_starts_.end(), pos) -
          word_starts_.begin() - 1));
    }
    // A word that holds the core more than once fills several slots; check
    // it once.
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  std::vector<Token> out;
  size_t matched_words = 0;
  for (int32_t w : candidates) {
    const Offset* begin = postings_.data() + offsets_[static_cast<size_t>(w)];
    const Offset* end =
        postings_.data() + offsets_[static_cast<size_t>(w) + 1];
    const Offset length = WordLength(static_cast<size_t>(w));
    if (!p.MatchesToken(content.substr(static_cast<size_t>(*begin),
                                       static_cast<size_t>(length)))) {
      continue;
    }
    const size_t at = out.size();
    out.resize(at + static_cast<size_t>(end - begin));
    std::transform(begin, end, out.begin() + static_cast<std::ptrdiff_t>(at),
                   [length](Offset left) {
                     return Token{left, left + length - 1};
                   });
    ++matched_words;
  }
  // One posting list is in text order already.
  if (matched_words > 1) SortByLeft(&out, text_->size());
  if (obs::OpCounters* sink = obs::CountersSink()) {
    // One probe per vocabulary-array slot in the core's range (per word
    // scanned when the core is empty), one comparison per candidate word.
    sink->index_probes += probes;
    sink->comparisons += static_cast<int64_t>(candidates.size());
  }
  return out;
}

InvertedWordIndex::InvertedWordIndex(const Text* text) : text_(text) {
  const std::string_view content = text->content();
  ForEachToken(content, [&](const Token& t) {
    postings_[std::string(TokenText(content, t))].push_back(t);
    ++num_tokens_;
  });
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
