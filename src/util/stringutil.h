#ifndef REGAL_UTIL_STRINGUTIL_H_
#define REGAL_UTIL_STRINGUTIL_H_

#include <array>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace regal {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// `parts` concatenated, appended into one string. Use it where a chain of
/// operator+ would begin with a string literal: GCC 12 inlines such a chain
/// at -O3 into a copy it flags with a false -Wrestrict warning.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// ASCII lower-casing (locale independent).
std::string ToLowerAscii(std::string_view s);
char ToLowerAscii(char c);

/// True iff `s` starts with / ends with the given affix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strips leading/trailing ASCII whitespace.
std::string_view StripAscii(std::string_view s);

/// kIdentChars[b] is true iff byte b is an ASCII letter, digit or
/// underscore.
inline constexpr std::array<bool, 256> kIdentChars = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[static_cast<size_t>(c)] = (c >= 'a' && c <= 'z') ||
                                    (c >= 'A' && c <= 'Z') ||
                                    (c >= '0' && c <= '9') || c == '_';
  }
  return table;
}();

/// True iff c is an ASCII letter, digit or underscore (identifier char).
/// Inline and one table load: the tokenizer tests every byte of the text
/// with it.
inline bool IsIdentChar(char c) {
  return kIdentChars[static_cast<unsigned char>(c)];
}

}  // namespace regal

#endif  // REGAL_UTIL_STRINGUTIL_H_
