#include "index/suffix_array.h"

#include <algorithm>

namespace regal {

namespace {

// SA-IS (Nong, Zhang & Chan, "Linear Suffix Array Construction by Almost
// Pure Induced-Sorting", DCC 2009) in the in-place form of their reference
// code: the sorted LMS suffixes sit in the head of `sa`, their names in its
// tail, and the reduced problem recurses into the head. The text ends in a
// virtual sentinel that is smaller than every character, so a suffix that is
// a proper prefix of another sorts first, as std::string comparison has it.

constexpr int32_t kEmpty = -1;

// types[i] is true iff suffix i is S-type (smaller than suffix i + 1). The
// last suffix is L-type: it is larger than the sentinel.
using Types = std::vector<bool>;

// A leftmost S-type position: the sentinel position n is one too, but it is
// never stored.
bool IsLms(const Types& types, int32_t i) {
  return i > 0 && types[static_cast<size_t>(i)] &&
         !types[static_cast<size_t>(i - 1)];
}

// The first slot (`ends` false) or one past the last slot (`ends` true) of
// each character's bucket.
template <typename Char>
void Buckets(const Char* s, int32_t n, bool ends, std::vector<int32_t>* bucket) {
  std::fill(bucket->begin(), bucket->end(), 0);
  for (int32_t i = 0; i < n; ++i) ++(*bucket)[s[i]];
  int32_t sum = 0;
  for (int32_t& b : *bucket) {
    sum += b;
    b = ends ? sum : sum - b;
  }
}

// From LMS suffixes placed at their bucket ends, induces the L-type suffixes
// left to right, then all S-type suffixes right to left.
template <typename Char>
void Induce(const Char* s, const Types& types, int32_t n, int32_t* sa,
            std::vector<int32_t>* bucket) {
  Buckets(s, n, /*ends=*/false, bucket);
  // The sentinel sorts first, and induces the last suffix.
  sa[(*bucket)[s[n - 1]]++] = n - 1;
  for (int32_t i = 0; i < n; ++i) {
    const int32_t j = sa[i] - 1;
    if (j >= 0 && !types[static_cast<size_t>(j)]) sa[(*bucket)[s[j]]++] = j;
  }
  Buckets(s, n, /*ends=*/true, bucket);
  for (int32_t i = n - 1; i >= 0; --i) {
    const int32_t j = sa[i] - 1;
    if (j >= 0 && types[static_cast<size_t>(j)]) sa[--(*bucket)[s[j]]] = j;
  }
}

// True iff the LMS substrings at `a` != `b` (each up to and including the
// next LMS position) have the same characters and types.
template <typename Char>
bool SameLmsSubstring(const Char* s, const Types& types, int32_t n, int32_t a,
                      int32_t b) {
  for (int32_t d = 0;; ++d) {
    // Only one of them can reach the sentinel, which is unique.
    if (a + d == n || b + d == n) return false;
    if (s[a + d] != s[b + d] || types[static_cast<size_t>(a + d)] !=
                                    types[static_cast<size_t>(b + d)]) {
      return false;
    }
    if (d > 0 && IsLms(types, a + d)) return true;
  }
}

// Fills sa[0, n) with the suffix array of s[0, n), whose characters are in
// [0, alphabet).
template <typename Char>
void SaIs(const Char* s, int32_t n, int32_t alphabet, int32_t* sa) {
  Types types(static_cast<size_t>(n));
  for (int32_t i = n - 2; i >= 0; --i) {
    types[static_cast<size_t>(i)] =
        s[i] < s[i + 1] ||
        (s[i] == s[i + 1] && types[static_cast<size_t>(i + 1)]);
  }

  // Stage 1: sort the LMS substrings by inducing from the LMS positions in
  // any order within their buckets, and compact them into the head.
  std::fill(sa, sa + n, kEmpty);
  {
    std::vector<int32_t> bucket(static_cast<size_t>(alphabet));
    Buckets(s, n, /*ends=*/true, &bucket);
    for (int32_t i = 1; i < n; ++i) {
      if (IsLms(types, i)) sa[--bucket[s[i]]] = i;
    }
    Induce(s, types, n, sa, &bucket);
  }
  int32_t n1 = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (IsLms(types, sa[i])) sa[n1++] = sa[i];
  }

  // Name the LMS substrings in sorted order. No two LMS positions are
  // adjacent, so n1 <= n / 2 and position p's name fits at n1 + p / 2; the
  // names are then packed, in text order, into the tail.
  std::fill(sa + n1, sa + n, kEmpty);
  int32_t names = 0;
  for (int32_t i = 0, prev = kEmpty; i < n1; ++i) {
    const int32_t pos = sa[i];
    if (prev == kEmpty || !SameLmsSubstring(s, types, n, pos, prev)) {
      ++names;
      prev = pos;
    }
    sa[n1 + pos / 2] = names - 1;
  }
  for (int32_t i = n - 1, j = n - 1; i >= n1; --i) {
    if (sa[i] != kEmpty) sa[j--] = sa[i];
  }

  // Stage 2: the order of the LMS suffixes is the suffix array of the
  // reduced string of names, computed in the head.
  int32_t* reduced = sa + (n - n1);
  if (names < n1) {
    SaIs(reduced, n1, names, sa);
  } else {
    for (int32_t i = 0; i < n1; ++i) sa[reduced[i]] = i;
  }

  // Stage 3: map ranks back to LMS positions, place the sorted LMS suffixes
  // at their bucket ends, and induce the rest. The placement runs backward
  // from the largest: each lands at or after its own head slot, which has
  // already been read.
  for (int32_t i = 1, j = 0; i < n; ++i) {
    if (IsLms(types, i)) reduced[j++] = i;
  }
  for (int32_t i = 0; i < n1; ++i) sa[i] = reduced[sa[i]];
  std::fill(sa + n1, sa + n, kEmpty);
  std::vector<int32_t> bucket(static_cast<size_t>(alphabet));
  Buckets(s, n, /*ends=*/true, &bucket);
  for (int32_t i = n1 - 1; i >= 0; --i) {
    const int32_t pos = sa[i];
    sa[i] = kEmpty;
    sa[--bucket[s[pos]]] = pos;
  }
  Induce(s, types, n, sa, &bucket);
}

}  // namespace

SuffixArray::SuffixArray(std::string text)
    : text_(std::move(text)), sa_(text_.size()) {
  if (sa_.empty()) return;
  SaIs(reinterpret_cast<const unsigned char*>(text_.data()),
       static_cast<int32_t>(text_.size()), /*alphabet=*/256, sa_.data());
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
