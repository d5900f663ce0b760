#include "core/algebra.h"

#include <bit>

#include "core/algebra_kernels.h"
#include "obs/counters.h"

namespace regal {

namespace {

// Binary-search depth over a set of n entries: the per-lookup comparison
// charge of the naive set oracles' RegionSet::Member calls.
int64_t ProbeDepth(size_t n) {
  return static_cast<int64_t>(std::bit_width(n) + 1);
}

// Flushes counters tallied in locals to the thread sink, if one is
// installed. Operators tally into stack variables (register-resident, no
// cost) and pay one load + branch here per call — the disabled fast path.
void ReportCounters(int64_t comparisons, int64_t merge_steps,
                    int64_t index_probes) {
  if (obs::OpCounters* sink = obs::CountersSink()) {
    sink->comparisons += comparisons;
    sink->merge_steps += merge_steps;
    sink->index_probes += index_probes;
  }
}

}  // namespace

// The set operations and the structural semi-joins run the span kernels of
// core/algebra_kernels.h over the full operands; the parallel layer
// (exec/parallel_algebra.cc) runs the same kernels per contiguous chunk,
// which keeps the two paths bit-identical. The semi-joins and ordering
// joins size their output exactly; ∪ and − reserve the size they have when
// no region cancels (|R| + |S|, |R|), and ∩ grows, so RegionSet copies only
// an output that came out smaller than its buffer.
RegionSet Union(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  out.reserve(r.size() + s.size());
  obs::OpCounters c;
  kernels::UnionSpan(r.regions().data(), r.regions().data() + r.size(),
                     s.regions().data(), s.regions().data() + s.size(), &out,
                     &c);
  kernels::FlushCounters(c);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Intersect(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  obs::OpCounters c;
  kernels::IntersectSpan(r.regions().data(), r.regions().data() + r.size(),
                         s.regions().data(), s.regions().data() + s.size(),
                         &out, &c);
  kernels::FlushCounters(c);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Difference(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  out.reserve(r.size());
  obs::OpCounters c;
  kernels::DifferenceSpan(r.regions().data(), r.regions().data() + r.size(),
                          s.regions().data(), s.regions().data() + s.size(),
                          &out, &c);
  kernels::FlushCounters(c);
  return RegionSet::FromSortedUnique(std::move(out));
}

// The structural semi-joins charge from the operand sizes alone: one
// comparison per region of R and one merge step per region swept on either
// side, so every partitioning of the parallel path reports the same totals.
RegionSet Including(const RegionSet& r, const RegionSet& s) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size() + s.size()), 0);
  std::vector<Region> out;
  kernels::IncludingSpan(r.regions().data(), r.regions().data() + r.size(),
                         s.regions().data(), s.regions().data() + s.size(),
                         kernels::kEmptyMin, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Included(const RegionSet& r, const RegionSet& s) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size() + s.size()), 0);
  std::vector<Region> out;
  kernels::IncludedSpan(r.regions().data(), r.regions().data() + r.size(),
                        s.regions().data(), s.regions().data() + s.size(),
                        kernels::kEmptyMax, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Precedes(const RegionSet& r, const RegionSet& s) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size()) + (s.empty() ? 0 : 1), 0);
  if (s.empty()) return RegionSet();
  // r precedes some s iff right(r) < the largest left endpoint in S, which
  // document order puts in the last element.
  const Offset max_left = s[s.size() - 1].left;
  std::vector<Region> out;
  kernels::FilterRightBefore(r.regions().data(), r.size(), max_left, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Follows(const RegionSet& r, const RegionSet& s) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size() + s.size()), 0);
  if (s.empty()) return RegionSet();
  const Offset min_right = kernels::MinRightEndpoint(s.regions().data(), s.size());
  std::vector<Region> out;
  kernels::FilterLeftAfter(r.regions().data(), r.size(), min_right, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size() + tokens.size()), 0);
  std::vector<Region> out;
  kernels::SelectSpan(r.regions().data(), r.regions().data() + r.size(),
                      tokens.data(), tokens.data() + tokens.size(),
                      kernels::kEmptyMin, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

namespace naive {

RegionSet Including(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (StrictlyIncludes(x, y)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Included(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (StrictlyIncludes(y, x)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Precedes(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (regal::Precedes(x, y)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Follows(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (regal::Precedes(y, x)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Union(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out(r.begin(), r.end());
  out.insert(out.end(), s.begin(), s.end());
  ReportCounters(0, static_cast<int64_t>(r.size() + s.size()), 0);
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet Intersect(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  for (const Region& x : r) {
    if (s.Member(x)) out.push_back(x);
  }
  ReportCounters(static_cast<int64_t>(r.size()) * ProbeDepth(s.size()), 0,
                 static_cast<int64_t>(r.size()));
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Difference(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  for (const Region& x : r) {
    if (!s.Member(x)) out.push_back(x);
  }
  ReportCounters(static_cast<int64_t>(r.size()) * ProbeDepth(s.size()), 0,
                 static_cast<int64_t>(r.size()));
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Token& t : tokens) {
      ++comparisons;
      if (x.left <= t.left && t.right <= x.right) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

}  // namespace naive

}  // namespace regal
