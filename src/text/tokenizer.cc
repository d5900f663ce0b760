#include "text/tokenizer.h"

namespace regal {

std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  ForEachToken(text, [&](const Token& t) { tokens.push_back(t); });
  return tokens;
}

std::string_view TokenText(std::string_view text, const Token& t) {
  return text.substr(static_cast<size_t>(t.left),
                     static_cast<size_t>(t.right - t.left + 1));
}

}  // namespace regal
