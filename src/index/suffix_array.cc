#include "index/suffix_array.h"

#include <algorithm>
#include <numeric>

#include "exec/parallel_sort.h"
#include "exec/thread_pool.h"

namespace regal {

SuffixArray::SuffixArray(std::string text)
    : SuffixArray(std::move(text), &exec::ThreadPool::Default()) {}

SuffixArray::SuffixArray(std::string text, exec::ThreadPool* pool)
    : text_(std::move(text)) {
  const int32_t n = static_cast<int32_t>(text_.size());
  sa_.resize(static_cast<size_t>(n));
  std::iota(sa_.begin(), sa_.end(), 0);
  if (n == 0) return;

  // rank[i] = equivalence class of suffix i by its first `len` chars.
  std::vector<int32_t> rank(static_cast<size_t>(n));
  std::vector<int32_t> next_rank(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    rank[static_cast<size_t>(i)] =
        static_cast<unsigned char>(text_[static_cast<size_t>(i)]);
  }
  for (int32_t len = 1;; len *= 2) {
    auto key = [&](int32_t i) {
      int32_t second = (i + len < n) ? rank[static_cast<size_t>(i + len)] : -1;
      return std::pair<int32_t, int32_t>(rank[static_cast<size_t>(i)], second);
    };
    // Tie-break equal keys by suffix index: a strict total order makes every
    // round's output independent of the sort algorithm and lane count.
    exec::ParallelSort(
        &sa_,
        [&](int32_t a, int32_t b) {
          auto ka = key(a);
          auto kb = key(b);
          if (ka != kb) return ka < kb;
          return a < b;
        },
        pool);
    next_rank[static_cast<size_t>(sa_[0])] = 0;
    for (int32_t i = 1; i < n; ++i) {
      next_rank[static_cast<size_t>(sa_[static_cast<size_t>(i)])] =
          next_rank[static_cast<size_t>(sa_[static_cast<size_t>(i - 1)])] +
          (key(sa_[static_cast<size_t>(i - 1)]) < key(sa_[static_cast<size_t>(i)])
               ? 1
               : 0);
    }
    rank.swap(next_rank);
    if (rank[static_cast<size_t>(sa_[static_cast<size_t>(n - 1)])] == n - 1) {
      break;
    }
  }
}

std::pair<int32_t, int32_t> SuffixArray::EqualRange(
    std::string_view prefix) const {
  std::string_view text(text_);
  auto starts_less = [&](int32_t suffix_start, std::string_view p) {
    return text.substr(static_cast<size_t>(suffix_start), p.size()) < p;
  };
  auto p_less = [&](std::string_view p, int32_t suffix_start) {
    return p < text.substr(static_cast<size_t>(suffix_start), p.size());
  };
  auto lo = std::lower_bound(sa_.begin(), sa_.end(), prefix, starts_less);
  auto hi = std::upper_bound(lo, sa_.end(), prefix, p_less);
  return {static_cast<int32_t>(lo - sa_.begin()),
          static_cast<int32_t>(hi - sa_.begin())};
}

std::vector<int32_t> SuffixArray::Occurrences(std::string_view prefix) const {
  auto [lo, hi] = EqualRange(prefix);
  std::vector<int32_t> out(sa_.begin() + lo, sa_.begin() + hi);
  std::sort(out.begin(), out.end());
  return out;
}

int64_t SuffixArray::Count(std::string_view prefix) const {
  auto [lo, hi] = EqualRange(prefix);
  return hi - lo;
}

}  // namespace regal
