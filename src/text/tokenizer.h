#ifndef REGAL_TEXT_TOKENIZER_H_
#define REGAL_TEXT_TOKENIZER_H_

#include <string_view>
#include <vector>

#include "text/text.h"
#include "util/stringutil.h"

namespace regal {

/// A word occurrence: inclusive byte range [left, right] within a Text.
/// These are the "match points" of the PAT word index, widened to carry the
/// token extent so that W(r, p) can test full containment in r.
struct Token {
  Offset left;
  Offset right;  // Inclusive offset of the last byte.

  bool operator==(const Token& other) const {
    return left == other.left && right == other.right;
  }
};

/// Calls `visit(Token)` for each token of `text` in text order. A token is
/// a maximal run of [A-Za-z0-9_]: deterministic and locale independent.
/// This scan is the one definition of a token; Tokenize and both word
/// indexes run it, so their W(r, p) predicates agree.
template <typename Visit>
void ForEachToken(std::string_view text, Visit&& visit) {
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    if (!IsIdentChar(text[i])) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (++i < n && IsIdentChar(text[i])) {
    }
    visit(Token{static_cast<Offset>(start), static_cast<Offset>(i - 1)});
  }
}

/// The tokens of `text`, in text order (see ForEachToken).
std::vector<Token> Tokenize(std::string_view text);

/// The token text for `t` within `text`.
std::string_view TokenText(std::string_view text, const Token& t);

}  // namespace regal

#endif  // REGAL_TEXT_TOKENIZER_H_
