#ifndef REGAL_INDEX_SUFFIX_ARRAY_H_
#define REGAL_INDEX_SUFFIX_ARRAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace regal {

/// A suffix array — the modern equivalent of the PAT array underlying the
/// Open Text PAT system [Gon87, Ope93] whose algebra the paper studies.
/// Construction is SA-IS induced sorting in linear time, on the calling
/// thread, with no workspace beyond the array but the suffix type bits and
/// the bucket counts. Bytes compare as unsigned char.
class SuffixArray {
 public:
  SuffixArray() = default;

  /// Builds the suffix array of `text`.
  explicit SuffixArray(std::string text);

  /// The indexed text.
  const std::string& text() const { return text_; }

  /// sa()[i] = starting offset of the i-th suffix in lexicographic order.
  const std::vector<int32_t>& sa() const { return sa_; }

  /// The half-open range [lo, hi) of suffix-array slots whose suffixes start
  /// with `prefix` (binary search, O(|prefix| log n)). Empty range if none.
  std::pair<int32_t, int32_t> EqualRange(std::string_view prefix) const;

  /// Text offsets of all occurrences of `prefix`, in increasing text order.
  std::vector<int32_t> Occurrences(std::string_view prefix) const;

  /// Number of occurrences of `prefix`.
  int64_t Count(std::string_view prefix) const;

 private:
  std::string text_;
  std::vector<int32_t> sa_;
};

}  // namespace regal

#endif  // REGAL_INDEX_SUFFIX_ARRAY_H_
