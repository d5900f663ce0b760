#include "text/text.h"

#include <algorithm>

namespace regal {

std::string_view Text::Slice(Offset left, Offset right) const {
  const Offset first = std::max<Offset>(left, 0);
  const Offset last = std::min<Offset>(right, size() - 1);
  if (first > last) return {};
  return std::string_view(content_).substr(
      static_cast<size_t>(first), static_cast<size_t>(last - first + 1));
}

int Text::LineOf(Offset offset) const {
  const std::string_view before =
      std::string_view(content_).substr(0, static_cast<size_t>(offset));
  return 1 + static_cast<int>(std::count(before.begin(), before.end(), '\n'));
}

int Text::ColumnOf(Offset offset) const {
  const std::string_view before =
      std::string_view(content_).substr(0, static_cast<size_t>(offset));
  const size_t newline = before.rfind('\n');
  const size_t line_start = newline == std::string_view::npos ? 0 : newline + 1;
  return static_cast<int>(before.size() - line_start) + 1;
}

std::string Text::Snippet(Offset left, Offset right, int max_len) const {
  std::string out(Slice(left, right));
  for (char& c : out) {
    if (c == '\n' || c == '\t' || c == '\r') c = ' ';
  }
  if (static_cast<int>(out.size()) > max_len) {
    out.resize(static_cast<size_t>(max_len - 3));
    out += "...";
  }
  return out;
}

}  // namespace regal
