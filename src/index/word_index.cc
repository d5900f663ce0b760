#include "index/word_index.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>

#include "exec/thread_pool.h"
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

// The text is cut into chunks of at least kMinChunkBytes, up to
// kChunksPerLane per lane: lanes claim chunks as they come free, so a lane
// that is busy elsewhere (ParseSgml's tag scan) or wakes late leaves its
// share to the others. A 1-lane pool builds in one chunk. Both constants
// come from a BM_ParseSgml sweep (EXPERIMENTS E9).
constexpr size_t kMinChunkBytes = size_t{64} << 10;
constexpr size_t kChunksPerLane = 4;

size_t ChunkCount(size_t bytes, int lanes) {
  if (lanes <= 1) return 1;
  return std::clamp(bytes / kMinChunkBytes, size_t{1},
                    static_cast<size_t>(lanes) * kChunksPerLane);
}

struct Occurrence {
  Offset left;
  int32_t word;  // The chunk's id of the token's word.
};

// One chunk's share of the build: its words numbered in order of first
// occurrence, each word's token count, and its tokens in text order.
struct Chunk {
  Interner words;
  std::vector<int32_t> counts;
  std::vector<Occurrence> occurrences;
  // By the chunk's word id: the word's global id, then the slot of the
  // chunk's next token of it in postings_.
  std::vector<int32_t> slots;
};

}  // namespace

SuffixArrayWordIndex::SuffixArrayWordIndex(const Text* text) : text_(text) {
  const std::string_view content = text->content();
  exec::ThreadPool& pool = exec::ThreadPool::Default();
  // Cut the text into chunks, each cut moved forward out of the token it
  // lands in, so every token lies in one chunk and the chunks' tokens,
  // concatenated in chunk order, are the text's. Moving forward keeps the
  // cuts in order; cuts inside one long token all move to its end.
  const size_t num_chunks = ChunkCount(content.size(), pool.num_threads());
  std::vector<size_t> cuts = {0};
  for (size_t k = 1; k < num_chunks; ++k) {
    size_t cut = content.size() * k / num_chunks;
    while (cut > 0 && cut < content.size() && IsIdentChar(content[cut - 1]) &&
           IsIdentChar(content[cut])) {
      ++cut;
    }
    cuts.push_back(cut);
  }
  cuts.push_back(content.size());
  std::vector<Chunk> chunks(num_chunks);
  pool.ParallelFor(num_chunks, [&](size_t k) {
    Chunk& chunk = chunks[k];
    const std::string_view bytes =
        content.substr(cuts[k], cuts[k + 1] - cuts[k]);
    // A token takes a byte and a separator: the bound is touched only as
    // it fills.
    chunk.occurrences.reserve(bytes.size() / 2 + 1);
    const auto base = static_cast<Offset>(cuts[k]);
    ForEachToken(bytes, [&](const Token& t) {
      const int32_t word = chunk.words.Intern(TokenText(bytes, t));
      if (static_cast<size_t>(word) == chunk.counts.size()) {
        chunk.counts.push_back(0);
      }
      ++chunk.counts[static_cast<size_t>(word)];
      chunk.occurrences.push_back(Occurrence{base + t.left, word});
    });
  });
  // Number the words in chunk order: each chunk numbers its own in order of
  // first occurrence, so the ids are in order of first occurrence in the
  // text. A chunk's slot of each word first holds the word's id.
  Interner words;
  std::vector<int32_t> totals;
  for (Chunk& chunk : chunks) {
    chunk.slots.resize(chunk.counts.size());
    for (size_t w = 0; w < chunk.counts.size(); ++w) {
      const int32_t id = words.Intern(chunk.words.key(static_cast<int32_t>(w)));
      if (static_cast<size_t>(id) == totals.size()) totals.push_back(0);
      totals[static_cast<size_t>(id)] += chunk.counts[w];
      chunk.slots[w] = id;
    }
  }
  const auto num_words = static_cast<size_t>(words.size());
  std::string joined;
  word_starts_.reserve(num_words + 1);
  for (size_t w = 0; w < num_words; ++w) {
    word_starts_.push_back(static_cast<int32_t>(joined.size()));
    for (char c : words.key(static_cast<int32_t>(w))) joined += ToLowerAscii(c);
    joined += kJoin;
  }
  word_starts_.push_back(static_cast<int32_t>(joined.size()));
  // Word w's posting list holds its tokens of chunk 0, then of chunk 1, and
  // so on: each chunk's slot of w becomes where its first token of w goes.
  offsets_.assign(num_words + 1, 0);
  std::partial_sum(totals.begin(), totals.end(), offsets_.begin() + 1);
  std::vector<int32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (Chunk& chunk : chunks) {
    for (size_t w = 0; w < chunk.slots.size(); ++w) {
      int32_t& slot = next[static_cast<size_t>(chunk.slots[w])];
      chunk.slots[w] = slot;
      slot += chunk.counts[w];
    }
  }
  // The chunks fill disjoint slots, each in text order.
  postings_.resize(static_cast<size_t>(offsets_.back()));
  pool.ParallelFor(num_chunks, [&](size_t k) {
    Chunk& chunk = chunks[k];
    for (const Occurrence& o : chunk.occurrences) {
      postings_[static_cast<size_t>(
          chunk.slots[static_cast<size_t>(o.word)]++)] = o.left;
    }
  });
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
