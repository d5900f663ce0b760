#ifndef REGAL_INDEX_SUFFIX_ARRAY_H_
#define REGAL_INDEX_SUFFIX_ARRAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace regal {

namespace exec {
class ThreadPool;
}  // namespace exec

/// A suffix array — the modern equivalent of the PAT array underlying the
/// Open Text PAT system [Gon87, Ope93] whose algebra the paper studies.
/// Construction is prefix-doubling (O(n log^2 n)), which is ample for the
/// corpus sizes the benchmarks sweep; each doubling round's sort runs on the
/// exec thread pool. Ranks within a round break ties by
/// suffix index (a strict total order), so construction is deterministic and
/// identical for every thread count, including fully sequential.
class SuffixArray {
 public:
  SuffixArray() = default;

  /// Builds the suffix array of `text` on the default thread pool.
  explicit SuffixArray(std::string text);

  /// As above on `pool`; nullptr builds strictly sequentially.
  SuffixArray(std::string text, exec::ThreadPool* pool);

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
