#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <string>
#include <string_view>

#include "doc/dictionary.h"
#include "index/suffix_array.h"
#include "index/word_index.h"
#include "obs/counters.h"
#include "text/tokenizer.h"
#include "util/interner.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

std::vector<int32_t> NaiveOccurrences(const std::string& text,
                                      const std::string& pattern) {
  std::vector<int32_t> out;
  if (pattern.empty()) return out;
  size_t pos = 0;
  while ((pos = text.find(pattern, pos)) != std::string::npos) {
    out.push_back(static_cast<int32_t>(pos));
    ++pos;
  }
  return out;
}

// The oracle: every suffix of `text`, sorted by plain string comparison
// (std::string_view compares bytes as unsigned char, as the index does).
std::vector<int32_t> NaiveSuffixArray(const std::string& text) {
  std::vector<int32_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  const std::string_view view(text);
  std::sort(sa.begin(), sa.end(), [&](int32_t a, int32_t b) {
    return view.substr(static_cast<size_t>(a)) <
           view.substr(static_cast<size_t>(b));
  });
  return sa;
}

std::string RandomBytes(Rng* rng, size_t length, int alphabet) {
  std::string text(length, '\0');
  for (char& c : text) {
    c = static_cast<char>(rng->Below(static_cast<uint64_t>(alphabet)));
  }
  return text;
}

std::string Repeat(const std::string& unit, int times) {
  std::string text;
  for (int i = 0; i < times; ++i) text += unit;
  return text;
}

TEST(SuffixArrayTest, Banana) {
  SuffixArray sa("banana");
  EXPECT_EQ(sa.sa(), (std::vector<int32_t>{5, 3, 1, 0, 4, 2}));
  EXPECT_EQ(sa.Count("ana"), 2);
  EXPECT_EQ(sa.Occurrences("ana"), (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(sa.Count("nan"), 1);
  EXPECT_EQ(sa.Count("xyz"), 0);
}

// The first `length` letters of the Fibonacci word "abaababaabaab...", whose
// reduced strings stay repetitive, so SA-IS recurses deep on it.
std::string FibonacciWord(size_t length) {
  std::string previous = "a";
  std::string word = "ab";
  while (word.size() < length) {
    std::string next = word + previous;
    previous = std::move(word);
    word = std::move(next);
  }
  return word.substr(0, length);
}

// The first `length` letters of the Thue-Morse word: letter i is 'b' iff i
// has an odd number of one bits.
std::string ThueMorseWord(size_t length) {
  std::string word(length, 'a');
  for (size_t i = 0; i < length; ++i) {
    if (std::popcount(i) % 2 == 1) word[i] = 'b';
  }
  return word;
}

// sa() equals the naive sort of all suffixes for every text up to length 10
// over {a, b}, seeded random texts, adversarial ones, and texts that drive
// SA-IS's recursion deep.
TEST(SuffixArrayTest, SortedProperty) {
  std::vector<std::string> texts = {"mississippi", "abracadabra"};
  for (int length = 0; length <= 10; ++length) {
    for (int bits = 0; bits < (1 << length); ++bits) {
      std::string text;
      for (int i = 0; i < length; ++i) text += ((bits >> i) & 1) ? 'b' : 'a';
      texts.push_back(text);
    }
  }
  Rng rng(11);
  for (int alphabet : {1, 2, 4, 26, 256}) {
    for (int trial = 0; trial < 8; ++trial) {
      texts.push_back(RandomBytes(&rng, 1 + rng.Below(300), alphabet));
    }
  }
  texts.push_back(RandomBytes(&rng, 40000, 4));
  texts.push_back(RandomBytes(&rng, 40000, 256));
  // SA-IS's recursion, counting the top level: 8 levels on the 6,765-byte
  // Fibonacci word, 7 on the 4,096-byte Thue-Morse word, and 3 on a random
  // 4-letter text of 2^17 bytes (natural text takes 3-4).
  texts.push_back(FibonacciWord(6765));
  texts.push_back(ThueMorseWord(4096));
  texts.push_back(RandomBytes(&rng, size_t{1} << 17, 4));
  // Adversarial: one letter, periodic, and every byte value (NUL and the
  // bytes >= 0x80 included, which must sort as unsigned).
  texts.push_back(std::string(2000, 'a'));
  texts.push_back(std::string(300, '\0'));
  texts.push_back(std::string(300, '\xff'));
  texts.push_back(Repeat("ab", 1000));
  texts.push_back(Repeat("abc", 700));
  texts.push_back(Repeat("aab", 500) + "a");
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes += static_cast<char>(b);
  texts.push_back(all_bytes);
  texts.push_back(std::string(all_bytes.rbegin(), all_bytes.rend()));
  texts.push_back(Repeat(all_bytes, 4));

  for (const std::string& text : texts) {
    EXPECT_EQ(SuffixArray(text).sa(), NaiveSuffixArray(text))
        << ::testing::PrintToString(text.substr(0, 40)) << " ("
        << text.size() << " bytes)";
  }
}

TEST(SuffixArrayTest, EmptyText) {
  SuffixArray sa("");
  EXPECT_TRUE(sa.sa().empty());
  EXPECT_EQ(sa.Count("a"), 0);
}

TEST(SuffixArrayTest, RandomTextsMatchNaiveSearch) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::string text;
    int len = static_cast<int>(20 + rng.Below(200));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>('a' + rng.Below(3));
    }
    SuffixArray sa(text);
    for (int q = 0; q < 20; ++q) {
      std::string pattern;
      int plen = static_cast<int>(1 + rng.Below(4));
      for (int i = 0; i < plen; ++i) {
        pattern += static_cast<char>('a' + rng.Below(3));
      }
      EXPECT_EQ(sa.Occurrences(pattern), NaiveOccurrences(text, pattern))
          << "text=" << text << " pattern=" << pattern;
    }
  }
}

class WordIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = std::make_unique<Text>(
        "the quick brown fox jumps over the lazy dog; "
        "the Quick fox_trot quip equip Quixote");
    sa_index_ = std::make_unique<SuffixArrayWordIndex>(text_.get());
    inv_index_ = std::make_unique<InvertedWordIndex>(text_.get());
  }

  std::unique_ptr<Text> text_;
  std::unique_ptr<SuffixArrayWordIndex> sa_index_;
  std::unique_ptr<InvertedWordIndex> inv_index_;
};

TEST_F(WordIndexTest, ExactWord) {
  auto p = *Pattern::Parse("fox");
  auto matches = sa_index_->Matches(p);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(TokenText(text_->content(), matches[0]), "fox");
}

TEST_F(WordIndexTest, PrefixWord) {
  auto p = *Pattern::Parse("qui*");
  auto matches = sa_index_->Matches(p);
  // quick, quip (case-sensitive: Quick and Quixote excluded).
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(WordIndexTest, CaseInsensitivePrefix) {
  auto p = *Pattern::Parse("qui*", /*case_insensitive=*/true);
  EXPECT_EQ(sa_index_->Matches(p).size(), 4u);
}

TEST_F(WordIndexTest, InfixPattern) {
  auto p = *Pattern::Parse("*ui*");
  // quick, Quick(no: case-sensitive ui present: Q-u-i yes 'ui' at 1), quip,
  // equip, Quixote: all contain "ui".
  EXPECT_EQ(sa_index_->Matches(p).size(), 5u);
}

TEST_F(WordIndexTest, ImplementationsAgree) {
  Rng rng(17);
  const char* specs[] = {"the",      "qui*", "*ip",   "*ui*", "q???k",
                         "fox_trot", "dog",  "zebra", "f?x",  "\xff*",
                         "qu\xff*"};
  for (const char* spec : specs) {
    for (bool ci : {false, true}) {
      auto p = *Pattern::Parse(spec, ci);
      auto a = sa_index_->Matches(p);
      auto b = inv_index_->Matches(p);
      EXPECT_EQ(a.size(), b.size()) << spec << " ci=" << ci;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << spec << " ci=" << ci;
    }
  }
}

TEST_F(WordIndexTest, ContainsRespectsRange) {
  auto p = *Pattern::Parse("fox");
  // First "fox" token is at offsets 16..18.
  EXPECT_TRUE(sa_index_->Contains(0, 25, p));
  EXPECT_FALSE(sa_index_->Contains(0, 15, p));
  EXPECT_FALSE(sa_index_->Contains(17, 30, p));  // Token only partially inside.
}

TEST_F(WordIndexTest, TokenCountsAgree) {
  EXPECT_EQ(sa_index_->NumTokens(), inv_index_->NumTokens());
  EXPECT_GT(inv_index_->VocabularySize(), 0);
  EXPECT_LE(inv_index_->VocabularySize(), inv_index_->NumTokens());
}

// index_probes counts the vocabulary-array slots in the core's range (the
// words scanned when the core is empty); comparisons counts the distinct
// candidate words checked against the pattern.
TEST_F(WordIndexTest, CountersChargeVocabularyWork) {
  const struct {
    const char* spec;
    int64_t probes;
    int64_t comparisons;
    size_t matches;
  } cases[] = {
      // One slot and one word, for three tokens.
      {"the", 1, 1, 3},
      // 'o' fills 7 slots of 6 words: fox_trot holds it twice.
      {"*o*", 7, 6, 6},
      // An all-'?' body checks each of the 13 distinct words once.
      {"???", 13, 13, 5},
  };
  for (const auto& c : cases) {
    obs::OpCounters counters;
    obs::OpCounters* previous = obs::SwapCountersSink(&counters);
    const size_t matches = sa_index_->Matches(*Pattern::Parse(c.spec)).size();
    obs::SwapCountersSink(previous);
    EXPECT_EQ(counters.index_probes, c.probes) << c.spec;
    EXPECT_EQ(counters.comparisons, c.comparisons) << c.spec;
    EXPECT_EQ(matches, c.matches) << c.spec;
  }
}

TEST(WordIndexRandomTest, ImplementationsAgreeOnRandomText) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::string content;
    int words = static_cast<int>(30 + rng.Below(100));
    for (int i = 0; i < words; ++i) {
      int len = static_cast<int>(1 + rng.Below(5));
      for (int j = 0; j < len; ++j) {
        content += static_cast<char>('a' + rng.Below(4));
      }
      content += ' ';
    }
    Text text(content);
    SuffixArrayWordIndex sa(&text);
    InvertedWordIndex inv(&text);
    for (const char* spec : {"a*", "*b", "*ab*", "ab", "a?c", "????"}) {
      auto p = *Pattern::Parse(spec);
      auto ma = sa.Matches(p);
      auto mb = inv.Matches(p);
      ASSERT_EQ(ma.size(), mb.size()) << spec << " text=" << content;
      EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()));
    }
  }
}

// Every byte no token contains, '*' (which the pattern syntax reserves)
// last: whatever byte the vocabulary index joins its words with is among
// them, and so are NUL and the bytes >= 0x80.
std::string NonWordBytes() {
  std::string bytes;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    if (!IsIdentChar(c) && c != '*') bytes += c;
  }
  return bytes + '*';
}

// Checks both word indexes over `content` against a scan that tests every
// token with MatchesToken, and the suffix-array index's counters against
// their definitions where the core holds only word bytes: one probe per
// occurrence of the lower-cased core in a lower-cased distinct word (one per
// word for an empty core), one comparison per distinct word holding it.
void ExpectIndexesMatchScan(const std::string& content,
                            const std::vector<Pattern>& patterns) {
  const Text text(content);
  const SuffixArrayWordIndex sa(&text);
  const InvertedWordIndex inv(&text);
  const std::vector<Token> tokens = Tokenize(content);
  ASSERT_EQ(sa.NumTokens(), static_cast<int64_t>(tokens.size()));
  std::set<std::string> distinct;
  for (const Token& t : tokens) {
    distinct.insert(std::string(TokenText(content, t)));
  }
  // Lower-cased one by one: "Quick" and "quick" are two words.
  std::vector<std::string> vocabulary;
  for (const std::string& word : distinct) {
    vocabulary.push_back(ToLowerAscii(word));
  }
  for (const Pattern& p : patterns) {
    std::vector<Token> want;
    for (const Token& t : tokens) {
      if (p.MatchesToken(TokenText(content, t))) want.push_back(t);
    }
    obs::OpCounters counters;
    obs::OpCounters* previous = obs::SwapCountersSink(&counters);
    const std::vector<Token> got = sa.Matches(p);
    obs::SwapCountersSink(previous);
    const std::string what = ::testing::PrintToString(p.CacheKey()) +
                             " over " +
                             ::testing::PrintToString(content.substr(0, 60));
    const std::string core = ToLowerAscii(p.LiteralCore());
    if (std::all_of(core.begin(), core.end(), IsIdentChar)) {
      int64_t probes = 0;
      int64_t comparisons = 0;
      for (const std::string& word : vocabulary) {
        int64_t hits = core.empty() ? 1 : 0;
        for (size_t at = word.find(core); !core.empty() && at != word.npos;
             at = word.find(core, at + 1)) {
          ++hits;
        }
        probes += hits;
        comparisons += hits > 0 ? 1 : 0;
      }
      EXPECT_EQ(counters.index_probes, probes) << what;
      EXPECT_EQ(counters.comparisons, comparisons) << what;
    }
    // Sorted by left endpoint, no token twice.
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                   [](const Token& a, const Token& b) {
                                     return a.left >= b.left;
                                   }) == got.end())
        << what;
    EXPECT_TRUE(got == want) << what << ": " << got.size() << " tokens, want "
                             << want.size();
    EXPECT_TRUE(inv.Matches(p) == want) << what << " (inverted)";
  }
}

// A random pattern: a body of 1-4 bytes over the words' letters, '?' and now
// and then a non-word byte, with or without each '*' and the
// case-insensitive flag.
Pattern RandomPattern(Rng* rng, const std::string& separators) {
  static constexpr char kBody[] = "aAbBzZ09_?";
  std::string spec = rng->Chance(0.5) ? "*" : "";
  const int length = static_cast<int>(1 + rng->Below(4));
  for (int i = 0; i < length; ++i) {
    spec += rng->Chance(0.1)
                ? separators[rng->Below(separators.size() - 1)]  // Not '*'.
                : kBody[rng->Below(sizeof(kBody) - 1)];
  }
  if (rng->Chance(0.5)) spec += '*';
  return *Pattern::Parse(spec, rng->Chance(0.5));
}

// The suffix-array index, the inverted index and a token scan return the
// same tokens for random texts of mixed-case words that repeat, separated by
// any non-word bytes; for texts with no tokens; and for a generated
// dictionary under every pattern family the end-to-end benchmark issues.
TEST(WordIndexDifferentialTest, IndexesAgreeWithTokenScan) {
  const std::string separators = NonWordBytes();
  std::vector<Pattern> core_patterns;
  // Cores holding each non-word byte, the join byte among them; none of
  // them can match a token.
  for (char sep : separators.substr(0, separators.size() - 1)) {
    for (const std::string& spec :
         {"*" + std::string(1, sep) + "*", "a" + std::string(1, sep) + "*",
          "*b" + std::string(1, sep) + "a*", "?" + std::string(1, sep)}) {
      for (bool ci : {false, true}) {
        core_patterns.push_back(*Pattern::Parse(spec, ci));
      }
    }
  }

  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::string> pool;
    for (int i = 0; i < 6; ++i) {
      std::string word;
      const int length = static_cast<int>(1 + rng.Below(5));
      for (int j = 0; j < length; ++j) word += "aAbBzZ09_"[rng.Below(9)];
      pool.push_back(word);
    }
    std::string content;
    const int words = static_cast<int>(rng.Below(80));
    for (int i = 0; i < words; ++i) {
      content += pool[rng.Below(pool.size())];
      const int gap = static_cast<int>(1 + rng.Below(3));
      for (int j = 0; j < gap; ++j) {
        content += separators[rng.Below(separators.size())];
      }
    }
    std::vector<Pattern> patterns;
    for (int q = 0; q < 60; ++q) {
      patterns.push_back(RandomPattern(&rng, separators));
    }
    // Every word of the pool, exactly and as a prefix, in both case modes.
    for (const std::string& word : pool) {
      for (bool ci : {false, true}) {
        patterns.push_back(*Pattern::Parse(word, ci));
        patterns.push_back(*Pattern::Parse(word + "*", ci));
      }
    }
    if (trial % 8 == 0) {
      patterns.insert(patterns.end(), core_patterns.begin(),
                      core_patterns.end());
    }
    ExpectIndexesMatchScan(content, patterns);
  }

  std::vector<Pattern> patterns = core_patterns;
  for (int q = 0; q < 60; ++q) {
    patterns.push_back(RandomPattern(&rng, separators));
  }
  for (const std::string& content :
       {std::string(), std::string(" "), std::string(3, '\0'), separators}) {
    ExpectIndexesMatchScan(content, patterns);
  }

  DictionaryGeneratorOptions options;
  options.entries = 200;
  std::vector<std::string> specs = {"CHAUCER", "SHAKESPEARE", "MILTON",
                                    "JOHNSON", "AUSTEN",      "DICKENS",
                                    "n",       "v",           "adj",
                                    "adv",     "hw0",         "hw199",
                                    "hw200",   "hw1999",      "term",
                                    "term*"};
  for (int n = 0; n < 120; ++n) specs.push_back("term" + std::to_string(n));
  for (int n = 2; n < 12; ++n) {
    specs.push_back("term" + std::to_string(n) + "*");
  }
  for (int n = 4; n < 9; ++n) specs.push_back("1" + std::to_string(n) + "*");
  for (int n = 0; n < 2000; n += 37) specs.push_back("hw" + std::to_string(n));
  for (int year = 1400; year < 1900; year += 23) {
    specs.push_back(std::to_string(year));
  }
  patterns.clear();
  for (const std::string& spec : specs) {
    for (bool ci : {false, true}) patterns.push_back(*Pattern::Parse(spec, ci));
  }
  ExpectIndexesMatchScan(GenerateDictionarySource(options), patterns);

  // A text that ends inside a token, and texts that are one token.
  patterns.clear();
  for (const char* spec : {"abc", "ab*", "*c", "x", "X", "tail", "?", "???"}) {
    for (bool ci : {false, true}) patterns.push_back(*Pattern::Parse(spec, ci));
  }
  for (const std::string& content :
       {std::string("abc.def tail"), std::string("abc"), std::string("x"),
        std::string("\n\nabc")}) {
    ExpectIndexesMatchScan(content, patterns);
  }

  // Tokens longer than 16 bytes that repeat, some ending the text.
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::string> pool;
    for (int i = 0; i < 5; ++i) {
      std::string word;
      const int length = static_cast<int>(17 + rng.Below(40));
      for (int j = 0; j < length; ++j) word += "aAbBzZ09_"[rng.Below(9)];
      pool.push_back(word);
    }
    std::string content;
    for (int i = 0; i < 40; ++i) {
      if (i > 0) content += separators[rng.Below(separators.size())];
      content += pool[rng.Below(pool.size())];
    }
    patterns.clear();
    for (int q = 0; q < 30; ++q) {
      patterns.push_back(RandomPattern(&rng, separators));
    }
    for (const std::string& word : pool) {
      patterns.push_back(*Pattern::Parse(word));
      patterns.push_back(*Pattern::Parse(word.substr(0, 12) + "*", true));
    }
    ExpectIndexesMatchScan(content, patterns);
  }

  // 70-byte words equal but for one letter flipped at offsets i and i + 64:
  // their bytes rotate by 7 bits per offset, a full turn of 64 bits every
  // 64 offsets, so the two flips cancel and all 31 words share one hash.
  // The index must tell them apart by their bytes.
  std::string colliding;
  const std::string base(70, 'a');
  std::vector<std::string> flipped = {base};
  for (size_t i = 0; i < 6; ++i) {
    for (char letter : {'b', 'd', 'e', 'f', 'g'}) {
      std::string word = base;
      word[i] = letter;
      word[i + 64] = letter;
      flipped.push_back(word);
    }
  }
  patterns.clear();
  for (const std::string& word : flipped) {
    colliding += word + ' ' + word + '\n';
    patterns.push_back(*Pattern::Parse(word));
  }
  patterns.push_back(*Pattern::Parse("aaaa*"));
  patterns.push_back(*Pattern::Parse("*b*"));
  ExpectIndexesMatchScan(colliding, patterns);

  // A vocabulary of 120,000 distinct words, in both cases, some repeated:
  // the word-id table doubles from its first size to 2^18 slots.
  std::string large;
  for (int i = 0; i < 120000; ++i) {
    large += i % 3 == 0 ? "W" : "w";
    large += std::to_string(i);
    large += i % 7 == 0 ? "\n" : " ";
    if (i % 5 == 0) large += StrCat({"w", std::to_string(i / 5), " "});
  }
  patterns.clear();
  for (const char* spec : {"w1", "W3", "w119999", "W119997", "w1234*", "*999",
                           "*77*", "W1?3", "w?????"}) {
    for (bool ci : {false, true}) patterns.push_back(*Pattern::Parse(spec, ci));
  }
  ExpectIndexesMatchScan(large, patterns);
}

// The one-scan build the chunked build replaced, kept as the reference: one
// Interner over the whole text gives word ids in order of first occurrence,
// and a counting sort of the left offsets by word lays out the posting
// lists. Its lookup is the index's, with a comparison sort at the end.
class SequentialWordIndex : public WordIndex {
 public:
  explicit SequentialWordIndex(const Text* text) : text_(text) {
    const std::string_view content = text->content();
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
    for (size_t w = 0; w < num_words; ++w) {
      word_starts_.push_back(static_cast<int32_t>(joined.size()));
      joined += ToLowerAscii(words.key(static_cast<int32_t>(w)));
      joined += '\0';
    }
    word_starts_.push_back(static_cast<int32_t>(joined.size()));
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

  std::vector<Token> Matches(const Pattern& p) const override {
    const std::string_view content(text_->content());
    const auto num_words = static_cast<int32_t>(offsets_.size()) - 1;
    std::vector<int32_t> candidates;
    int64_t probes = num_words;
    if (p.LiteralCore().empty()) {
      candidates.resize(static_cast<size_t>(num_words));
      std::iota(candidates.begin(), candidates.end(), 0);
    } else {
      const auto [lo, hi] =
          vocabulary_.EqualRange(ToLowerAscii(p.LiteralCore()));
      probes = hi - lo;
      for (int32_t slot = lo; slot < hi; ++slot) {
        const int32_t pos = vocabulary_.sa()[static_cast<size_t>(slot)];
        candidates.push_back(static_cast<int32_t>(
            std::upper_bound(word_starts_.begin(), word_starts_.end(), pos) -
            word_starts_.begin() - 1));
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    std::vector<Token> out;
    for (int32_t w : candidates) {
      const auto at = static_cast<size_t>(w);
      const Offset length = word_starts_[at + 1] - word_starts_[at] - 1;
      const Offset first = postings_[static_cast<size_t>(offsets_[at])];
      if (!p.MatchesToken(content.substr(static_cast<size_t>(first),
                                         static_cast<size_t>(length)))) {
        continue;
      }
      for (int32_t i = offsets_[at]; i < offsets_[at + 1]; ++i) {
        const Offset left = postings_[static_cast<size_t>(i)];
        out.push_back(Token{left, left + length - 1});
      }
    }
    std::sort(out.begin(), out.end(), [](const Token& a, const Token& b) {
      return a.left < b.left;
    });
    if (obs::OpCounters* sink = obs::CountersSink()) {
      sink->index_probes += probes;
      sink->comparisons += static_cast<int64_t>(candidates.size());
    }
    return out;
  }

  int64_t NumTokens() const override {
    return static_cast<int64_t>(postings_.size());
  }

 private:
  const Text* text_;
  std::vector<int32_t> offsets_;
  std::vector<Offset> postings_;
  std::vector<int32_t> word_starts_;
  SuffixArray vocabulary_;
};

// Checks the chunked build over `content` against the sequential one: the
// same token count, and the same tokens and counters for every distinct
// word (exactly, in both case modes) and for prefix, infix, `?` and all-`?`
// patterns drawn from the vocabulary.
void ExpectSameAsSequentialBuild(const std::string& content) {
  const Text text(content);
  const SuffixArrayWordIndex chunked(&text);
  const SequentialWordIndex sequential(&text);
  const std::string what = std::to_string(content.size()) + " bytes from " +
                           ::testing::PrintToString(content.substr(0, 40));
  ASSERT_EQ(chunked.NumTokens(), sequential.NumTokens()) << what;
  std::set<std::string> distinct;
  ForEachToken(content, [&](const Token& t) {
    distinct.emplace(TokenText(content, t));
  });
  std::vector<Pattern> patterns;
  for (const char* spec : {"?", "??", "*?*", "*??????*", "a*", "*0", "*e*"}) {
    for (bool ci : {false, true}) patterns.push_back(*Pattern::Parse(spec, ci));
  }
  size_t n = 0;
  for (const std::string& word : distinct) {
    for (bool ci : {false, true}) patterns.push_back(*Pattern::Parse(word, ci));
    if (n++ % 97 != 0 || word.size() > 64) continue;
    patterns.push_back(*Pattern::Parse(word.substr(0, 3) + "*", true));
    patterns.push_back(
        *Pattern::Parse(StrCat({"*", word.substr(word.size() / 2), "*"})));
    patterns.push_back(
        *Pattern::Parse(StrCat({"?", word.substr(1, 4), "*"}), n % 2 == 0));
    patterns.push_back(*Pattern::Parse(std::string(word.size(), '?')));
  }
  for (const Pattern& p : patterns) {
    obs::OpCounters want_counters;
    obs::OpCounters* previous = obs::SwapCountersSink(&want_counters);
    const std::vector<Token> want = sequential.Matches(p);
    obs::OpCounters got_counters;
    obs::SwapCountersSink(&got_counters);
    const std::vector<Token> got = chunked.Matches(p);
    obs::SwapCountersSink(previous);
    ASSERT_TRUE(got == want) << p.CacheKey() << " over " << what << ": "
                             << got.size() << " tokens, want " << want.size();
    ASSERT_EQ(got_counters.index_probes, want_counters.index_probes)
        << p.CacheKey() << " over " << what;
    ASSERT_EQ(got_counters.comparisons, want_counters.comparisons)
        << p.CacheKey() << " over " << what;
  }
}

// The chunked build gives the sequential build's index however the text is
// cut. The texts are large enough to make several chunks on a pool of
// several lanes (ctest runs this binary again at REGAL_THREADS=1 and =4),
// and the dictionary's prefixes sweep the chunk count up from one.
TEST(WordIndexChunkingTest, SameIndexAsSequentialBuild) {
  Rng rng(37);
  auto random_word = [&](size_t length) {
    std::string word;
    for (size_t i = 0; i < length; ++i) word += "aAbBzZ09_eE"[rng.Below(11)];
    return word;
  };
  // Tokens of 4,099 bytes between single spaces: nearly every cut lands
  // inside a token and moves to its end.
  std::vector<std::string> long_words;
  for (int i = 0; i < 6; ++i) long_words.push_back(random_word(4099));
  std::string inside;
  while (inside.size() < (size_t{1} << 20)) {
    inside += long_words[rng.Below(long_words.size())] + ' ';
  }
  ExpectSameAsSequentialBuild(inside);

  std::vector<std::string> short_words;
  for (int i = 0; i < 300; ++i) {
    short_words.push_back(random_word(1 + rng.Below(8)));
  }
  auto prose = [&](size_t bytes) {
    std::string out;
    while (out.size() < bytes) {
      out += short_words[rng.Below(short_words.size())];
      out += " \n.,<>"[rng.Below(6)];
    }
    return out;
  };
  // A token longer than a chunk, so several cuts land in it and the chunks
  // between them are empty.
  ExpectSameAsSequentialBuild(prose(size_t{1} << 18) +
                              std::string(size_t{600} << 10, 'q') +
                              prose(size_t{1} << 18));
  // One token, and a token at each end of the text.
  ExpectSameAsSequentialBuild(std::string(size_t{1} << 20, 'x'));
  ExpectSameAsSequentialBuild(random_word(size_t{300} << 10) + ' ' +
                              prose(size_t{1} << 19) +
                              random_word(size_t{300} << 10));
  // Chunks holding only separators.
  ExpectSameAsSequentialBuild(prose(size_t{1} << 18) +
                              std::string(size_t{1} << 20, ' ') +
                              prose(size_t{1} << 18));
  // Words first seen in the last chunk, some of them seen again there.
  std::string late = prose(size_t{1} << 20);
  for (int i = 0; i < 5000; ++i) {
    late += StrCat({"late", std::to_string(i % 3000), i % 7 == 0 ? "\n" : " "});
  }
  ExpectSameAsSequentialBuild(late);

  // An end-to-end-benchmark-shaped dictionary (1.3 MB, the size of
  // warm_served's and ingest_mixed's corpora), whole and cut every 256 KB.
  DictionaryGeneratorOptions options;
  options.entries = 2000;
  const std::string dictionary = GenerateDictionarySource(options);
  ASSERT_GE(dictionary.size(), size_t{1} << 20);
  ExpectSameAsSequentialBuild(dictionary);
  for (size_t size = 256 << 10; size < dictionary.size(); size += 256 << 10) {
    ExpectSameAsSequentialBuild(dictionary.substr(0, size));
  }
}

// Ids are dense, in order of first appearance, and every key reads back;
// the table doubles as it fills.
TEST(InternerTest, DenseIdsInOrderOfFirstAppearance) {
  Interner interner;
  EXPECT_EQ(interner.size(), 0);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(StrCat({"k", std::to_string(i)}));
  }
  keys.push_back("");
  keys.push_back(std::string("\0x", 2));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.Intern(keys[i]), static_cast<int32_t>(i));
    EXPECT_EQ(interner.Intern(keys[i / 2]), static_cast<int32_t>(i / 2));
  }
  ASSERT_EQ(interner.size(), static_cast<int32_t>(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.key(static_cast<int32_t>(i)), keys[i]);
  }
}

}  // namespace
}  // namespace regal
