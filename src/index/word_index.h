#ifndef REGAL_INDEX_WORD_INDEX_H_
#define REGAL_INDEX_WORD_INDEX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/suffix_array.h"
#include "text/pattern.h"
#include "text/text.h"
#include "text/tokenizer.h"

namespace regal {

/// The word index W of Definition 2.1, as an abstract interface: W(r, p)
/// holds iff some token fully contained in the inclusive byte range
/// [left, right] matches pattern p.
///
/// Two implementations are provided and cross-checked in the tests:
/// SuffixArrayWordIndex (the PAT-array approach of the commercial system the
/// paper studies, over the vocabulary) and InvertedWordIndex (the classic IR
/// structure).
class WordIndex {
 public:
  virtual ~WordIndex() = default;

  /// All tokens matching `p`, sorted by (left, right). The evaluator calls
  /// this once per selection and then tests containment per region.
  virtual std::vector<Token> Matches(const Pattern& p) const = 0;

  /// W(r, p) for r = [left, right].
  virtual bool Contains(Offset left, Offset right, const Pattern& p) const;

  /// Number of tokens in the indexed text.
  virtual int64_t NumTokens() const = 0;
};

/// Word index backed by a suffix array over the vocabulary. Building it
/// scans the text once, giving each distinct token string a word id as the
/// token is read (an Interner, util/interner.h) and recording its left
/// offset; a counting sort then lays the offsets out as one posting list
/// per word, in text order. It sorts the suffixes of the lower-cased
/// distinct words joined by a byte no token contains, so the suffix array
/// is the size of the vocabulary, not of the text. A lookup binary-searches
/// the lower-cased literal core of the pattern, maps the matching slots to
/// their words, checks each such word once against the full pattern (which
/// keeps case-sensitive patterns exact), and merges the postings of the
/// words that match. A pattern with an empty core checks every word.
class SuffixArrayWordIndex : public WordIndex {
 public:
  /// Builds the index. `text` must outlive the index.
  explicit SuffixArrayWordIndex(const Text* text);

  std::vector<Token> Matches(const Pattern& p) const override;
  int64_t NumTokens() const override {
    return static_cast<int64_t>(postings_.size());
  }

 private:
  // The length of word w; every token of w has it.
  Offset WordLength(size_t w) const {
    return word_starts_[w + 1] - word_starts_[w] - 1;  // Less the join byte.
  }

  const Text* text_;
  // The left offsets of word w's tokens, in text order, are
  // postings_[offsets_[w], offsets_[w+1]); each token is WordLength(w) long.
  std::vector<int32_t> offsets_;
  std::vector<Offset> postings_;
  // Word w's lower-cased text, then the join byte, starts at word_starts_[w]
  // of vocabulary_.text(); the last element is that text's size.
  std::vector<int32_t> word_starts_;
  SuffixArray vocabulary_;
};

/// Word index backed by a vocabulary -> postings map. Exact and prefix
/// patterns use the sorted vocabulary directly; other patterns scan the
/// vocabulary (never the text).
class InvertedWordIndex : public WordIndex {
 public:
  /// Builds the postings map in one pass over the tokens. `text` must
  /// outlive the index.
  explicit InvertedWordIndex(const Text* text);

  std::vector<Token> Matches(const Pattern& p) const override;
  int64_t NumTokens() const override { return num_tokens_; }

  /// Vocabulary size (distinct token strings, case-sensitive).
  int64_t VocabularySize() const { return static_cast<int64_t>(postings_.size()); }

 private:
  const Text* text_;
  // Ordered map doubles as the sorted vocabulary for prefix scans.
  std::map<std::string, std::vector<Token>> postings_;
  int64_t num_tokens_ = 0;
};

}  // namespace regal

#endif  // REGAL_INDEX_WORD_INDEX_H_
