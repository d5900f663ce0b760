#ifndef REGAL_TEXT_TEXT_H_
#define REGAL_TEXT_TEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace regal {

/// A byte offset into an indexed text. 32 bits covers the corpus sizes this
/// library targets (the PAT literature indexed the OED, ~570 MB; we keep the
/// type narrow for cache-friendliness of region lists).
using Offset = int32_t;

/// An immutable text buffer.
///
/// All regions produced by the library use *inclusive* endpoint offsets into
/// one Text (left = offset of the first byte, right = offset of the last
/// byte), matching the endpoint arithmetic of the paper (e.g. `r precedes s`
/// iff `right(r) < left(s)`).
class Text {
 public:
  Text() = default;
  explicit Text(std::string content) : content_(std::move(content)) {}

  const std::string& content() const { return content_; }
  Offset size() const { return static_cast<Offset>(content_.size()); }

  /// Substring covered by the inclusive range [left, right], clipped to the
  /// text: empty when the range lies wholly outside it. Regions reach the
  /// renderer unchecked (defined by a client, kept across a shorter
  /// BindText, decoded from a snapshot or the WAL), so no range is an error.
  std::string_view Slice(Offset left, Offset right) const;

  /// 1-based line number of `offset`. Requires 0 <= offset < size(). Scans
  /// the text up to `offset`: only diagnostics and tests ask.
  int LineOf(Offset offset) const;

  /// 1-based column of `offset` within its line; scans back to the line's
  /// start.
  int ColumnOf(Offset offset) const;

  /// A short single-line excerpt around [left, right] (clipped as Slice
  /// clips), ellipsized to at most `max_len` characters; newlines are
  /// replaced by spaces. For diagnostics and example output.
  std::string Snippet(Offset left, Offset right, int max_len = 60) const;

 private:
  std::string content_;
};

}  // namespace regal

#endif  // REGAL_TEXT_TEXT_H_
