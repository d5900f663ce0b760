// Differential tests for the per-ISA operator kernels (core/simd): every
// vector variant the CPU supports must produce bit-identical output AND
// exactly equal operation counters to the scalar oracle, on adversarial
// small inputs that cross every vector-width boundary and exercise overlap,
// adjacency, tie-breaks, nesting, galloping skew and ragged tails. The suite
// also covers the partitioned-chunk path of exec/parallel_algebra.cc, the
// REGAL_SIMD resolution rule, and the public operators (including the scalar
// semi-join sweeps) against the naive oracles under the active tier.
//
// ctest label: simd. The whole binary additionally re-runs under
// REGAL_SIMD=scalar|sse4|avx2 (see tests/CMakeLists.txt) so the dispatched
// ActiveKernels() path itself is exercised on every tier.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/algebra.h"
#include "core/algebra_kernels.h"
#include "core/region.h"
#include "core/region_set.h"
#include "core/simd/simd_kernels.h"
#include "obs/counters.h"
#include "util/cpu.h"
#include "util/random.h"

namespace regal {
namespace {

using simd::Isa;
using simd::KernelTable;

// Every kernel tier this machine can actually run; scalar is always first.
std::vector<const KernelTable*> AvailableTables() {
  std::vector<const KernelTable*> tables{&simd::ScalarKernels()};
  const util::CpuFeatures& f = util::CpuInfo();
  if (f.sse42) tables.push_back(&simd::KernelsFor(Isa::kSse4));
  if (f.avx2) tables.push_back(&simd::KernelsFor(Isa::kAvx2));
  return tables;
}

void ExpectCountersEqual(const obs::OpCounters& want,
                         const obs::OpCounters& got, const std::string& what) {
  EXPECT_EQ(want.comparisons, got.comparisons) << what << ": comparisons";
  EXPECT_EQ(want.merge_steps, got.merge_steps) << what << ": merge_steps";
  EXPECT_EQ(want.index_probes, got.index_probes) << what << ": index_probes";
}

// Document-orders and dedups an arbitrary region list into valid kernel
// input.
std::vector<Region> Canon(std::vector<Region> v) {
  std::sort(v.begin(), v.end(), RegionDocumentOrder{});
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<Region> RandomRegions(Rng& rng, size_t n, Offset span) {
  std::vector<Region> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Offset a = static_cast<Offset>(rng.Below(static_cast<uint64_t>(span)));
    Offset b = static_cast<Offset>(rng.Below(static_cast<uint64_t>(span)));
    if (a > b) std::swap(a, b);
    v.push_back(Region{a, b});
  }
  return Canon(std::move(v));
}

// The adversarial input pairs every merge test sweeps: each element is (R, S)
// in document order, duplicate-free, at most 64 regions a side.
std::vector<std::pair<std::vector<Region>, std::vector<Region>>>
AdversarialPairs() {
  std::vector<std::pair<std::vector<Region>, std::vector<Region>>> pairs;

  // Empty and singleton boundary cases.
  pairs.push_back({{}, {}});
  pairs.push_back({{{0, 1}}, {}});
  pairs.push_back({{}, {{0, 1}}});
  pairs.push_back({{{3, 7}}, {{3, 7}}});
  pairs.push_back({{{3, 7}}, {{3, 5}}});

  // Identical sets: every step is an equal pair.
  {
    std::vector<Region> both;
    for (Offset i = 0; i < 40; ++i) both.push_back({i, i + 3});
    pairs.push_back({both, both});
  }

  // Shared left endpoints with distinct rights: exercises the right-desc
  // tie-break of document order through the packed 64-bit keys.
  {
    std::vector<Region> r, s;
    for (Offset i = 0; i < 12; ++i) {
      r.push_back({5, 40 - i});
      s.push_back({5, 41 - i});
    }
    pairs.push_back({Canon(r), Canon(s)});
  }

  // Adjacent single-token runs, fully interleaved (worst case for runs).
  {
    std::vector<Region> r, s;
    for (Offset i = 0; i < 64; ++i) ((i % 2 == 0) ? r : s).push_back({i, i + 1});
    pairs.push_back({r, s});
  }

  // Alternating blocks (long same-side runs, the bulk-append fast path),
  // with a ragged non-multiple-of-width tail.
  {
    std::vector<Region> r, s;
    for (Offset i = 0; i < 61; ++i) ((i / 9) % 2 == 0 ? r : s).push_back({i, i + 2});
    pairs.push_back({r, s});
  }

  // Deep nesting around one center: containment chains, overlapping spans.
  {
    std::vector<Region> r, s;
    for (Offset i = 0; i < 20; ++i) {
      r.push_back({i, 64 - i});
      s.push_back({i, 63 - i});
    }
    pairs.push_back({Canon(r), Canon(s)});
  }

  // Heavy skew in both directions: forces the galloping cutover (ratio 16).
  {
    std::vector<Region> big;
    for (Offset i = 0; i < 64; ++i) big.push_back({i, i + 1});
    pairs.push_back({big, {{31, 32}}});
    pairs.push_back({{{31, 32}}, big});
    pairs.push_back({big, {{100, 101}}});   // Probe beyond the end.
    pairs.push_back({{{-5, -4}}, big});     // Probe before the start.
  }

  // Offset extremes: the DocKey transform must hold over the full range.
  {
    constexpr Offset kMin = std::numeric_limits<Offset>::min();
    constexpr Offset kMax = std::numeric_limits<Offset>::max();
    std::vector<Region> r = Canon({{kMin, kMin}, {kMin, kMax}, {0, kMax},
                                   {kMax, kMax}, {-1, 1}});
    std::vector<Region> s = Canon({{kMin, 0}, {kMin, kMax}, {0, 0},
                                   {kMax - 1, kMax}, {kMax, kMax}});
    pairs.push_back({r, s});
  }

  // Seeded randoms across sizes, densities and overlap degrees.
  Rng rng(1234);
  for (int round = 0; round < 60; ++round) {
    const size_t nr = rng.Below(65);
    const size_t ns = rng.Below(65);
    const Offset span = static_cast<Offset>(4 + rng.Below(120));
    std::vector<Region> r = RandomRegions(rng, nr, span);
    std::vector<Region> s = RandomRegions(rng, ns, span);
    // Every third pair, copy a slice of R into S so equal pairs occur.
    if (round % 3 == 0 && !r.empty()) {
      s.insert(s.end(), r.begin(), r.begin() + r.size() / 2);
      s = Canon(std::move(s));
    }
    pairs.push_back({std::move(r), std::move(s)});
  }
  return pairs;
}

using MergeFn = void (*)(const Region*, const Region*, const Region*,
                         const Region*, std::vector<Region>*,
                         obs::OpCounters*);
using MergeField = MergeFn KernelTable::*;

void RunMergeDifferential(MergeField field, const char* op) {
  const auto tables = AvailableTables();
  ASSERT_FALSE(tables.empty());
  const auto pairs = AdversarialPairs();
  for (size_t pi = 0; pi < pairs.size(); ++pi) {
    const auto& [r, s] = pairs[pi];
    std::vector<Region> want;
    obs::OpCounters want_c;
    (simd::ScalarKernels().*field)(r.data(), r.data() + r.size(), s.data(),
                                   s.data() + s.size(), &want, &want_c);
    for (const KernelTable* kt : tables) {
      std::vector<Region> got;
      obs::OpCounters got_c;
      (kt->*field)(r.data(), r.data() + r.size(), s.data(), s.data() + s.size(),
                   &got, &got_c);
      const std::string what = std::string(op) + " pair " +
                               std::to_string(pi) + " isa " + kt->name;
      ASSERT_EQ(want, got) << what;
      ExpectCountersEqual(want_c, got_c, what);
    }
  }
}

TEST(SimdMergeDifferential, Union) {
  RunMergeDifferential(&KernelTable::union_span, "union");
}

TEST(SimdMergeDifferential, Intersect) {
  RunMergeDifferential(&KernelTable::intersect_span, "intersect");
}

TEST(SimdMergeDifferential, Difference) {
  RunMergeDifferential(&KernelTable::difference_span, "difference");
}

TEST(SimdMergeDifferential, AppendsAfterExistingOutput) {
  // The span kernels append; pre-existing output content must survive.
  const std::vector<Region> r = {{4, 5}, {6, 7}};
  const std::vector<Region> s = {{5, 6}};
  for (const KernelTable* kt : AvailableTables()) {
    std::vector<Region> out = {{0, 1}};
    obs::OpCounters c;
    kt->union_span(r.data(), r.data() + r.size(), s.data(), s.data() + s.size(),
                   &out, &c);
    ASSERT_EQ(out.size(), 4u) << kt->name;
    EXPECT_EQ(out[0], (Region{0, 1})) << kt->name;
    EXPECT_EQ(out[1], (Region{4, 5})) << kt->name;
  }
}

TEST(SimdGallopLowerBound, MatchesStdLowerBoundAndChargesEqually) {
  Rng rng(99);
  RegionDocumentOrder less;
  for (int round = 0; round < 40; ++round) {
    const std::vector<Region> hay =
        RandomRegions(rng, rng.Below(80), static_cast<Offset>(50));
    std::vector<Region> needles = hay;
    needles.push_back({-1, 0});
    needles.push_back({100, 200});
    needles.push_back({25, 25});
    for (const Region& v : needles) {
      const Region* want =
          std::lower_bound(hay.data(), hay.data() + hay.size(), v, less);
      int64_t scalar_cmp = 0;
      const Region* scalar_pos = simd::ScalarKernels().gallop_lower_bound(
          hay.data(), hay.data() + hay.size(), v, &scalar_cmp);
      ASSERT_EQ(want, scalar_pos);
      for (const KernelTable* kt : AvailableTables()) {
        int64_t cmp = 0;
        const Region* pos = kt->gallop_lower_bound(
            hay.data(), hay.data() + hay.size(), v, &cmp);
        ASSERT_EQ(want, pos) << kt->name;
        EXPECT_EQ(scalar_cmp, cmp) << kt->name;
      }
    }
  }
}

TEST(SimdEndpointFilters, MatchScalarOnAllSizesAndBounds) {
  auto check = [](const std::vector<Region>& in, Offset bound) {
    std::vector<Region> want_rb, want_la;
    for (const Region& x : in) {
      if (x.right < bound) want_rb.push_back(x);
      if (x.left > bound) want_la.push_back(x);
    }
    for (const KernelTable* kt : AvailableTables()) {
      std::vector<Region> got_rb = {{-99, -98}};  // Must be preserved.
      std::vector<Region> got_la = {{-99, -98}};
      kt->filter_right_before(in.data(), in.size(), bound, &got_rb);
      kt->filter_left_after(in.data(), in.size(), bound, &got_la);
      ASSERT_EQ(got_rb.front(), (Region{-99, -98})) << kt->name;
      ASSERT_EQ(got_la.front(), (Region{-99, -98})) << kt->name;
      got_rb.erase(got_rb.begin());
      got_la.erase(got_la.begin());
      EXPECT_EQ(want_rb, got_rb)
          << kt->name << " right<" << bound << " n=" << in.size();
      EXPECT_EQ(want_la, got_la)
          << kt->name << " left>" << bound << " n=" << in.size();
      // An output that starts empty is grown once, to exactly its keepers.
      std::vector<Region> exact;
      kt->filter_right_before(in.data(), in.size(), bound, &exact);
      EXPECT_EQ(exact.capacity(), exact.size()) << kt->name;
    }
  };
  Rng rng(7);
  for (size_t n = 0; n <= 70; ++n) {
    const std::vector<Region> in =
        RandomRegions(rng, n, static_cast<Offset>(40));
    // Bounds spanning none/some/all pass rates.
    for (Offset bound : {Offset{-10}, Offset{0}, Offset{13}, Offset{20},
                         Offset{41}, Offset{100}}) {
      check(in, bound);
    }
  }
  // Inputs long enough that more than 64 vectors hold a rejected region and
  // runs of keepers outgrow the copy pass's flush length: short regions in
  // order, every 97th widened past the middle so it contains the bound.
  for (Offset n : {Offset{1000}, Offset{20000}}) {
    std::vector<Region> in;
    for (Offset i = 0; i < n; ++i) {
      in.push_back(Region{3 * i, i % 97 == 0 ? 3 * n : 3 * i + 1});
    }
    in = Canon(std::move(in));
    for (Offset bound : {Offset{0}, 3 * n / 2, 3 * n - 2, 4 * n}) {
      check(in, bound);
    }
    check(RandomRegions(rng, static_cast<size_t>(n), 4 * n), 2 * n);
  }
}

TEST(SimdMinRight, MatchesMinElement) {
  Rng rng(21);
  for (size_t n = 1; n <= 70; ++n) {
    const std::vector<Region> in =
        RandomRegions(rng, n, static_cast<Offset>(500));
    if (in.empty()) continue;
    Offset want = in[0].right;
    for (const Region& x : in) want = std::min(want, x.right);
    for (const KernelTable* kt : AvailableTables()) {
      EXPECT_EQ(want, kt->min_right(in.data(), in.size()))
          << kt->name << " n=" << in.size();
    }
  }
}

TEST(SimdPartitionedChunks, ConcatenationAndSummedCountersMatchScalar) {
  // Replays the chunking scheme of exec::PartitionedMerge: R is cut at index
  // boundaries, S at the matching document-order lower bounds, and each
  // chunk runs the span kernel independently. Concatenated chunk outputs and
  // summed chunk counters must be identical on every tier.
  Rng rng(77);
  RegionDocumentOrder less;
  for (int round = 0; round < 15; ++round) {
    const std::vector<Region> r =
        RandomRegions(rng, 30 + rng.Below(35), static_cast<Offset>(90));
    const std::vector<Region> s =
        RandomRegions(rng, 30 + rng.Below(35), static_cast<Offset>(90));
    if (r.empty()) continue;
    for (size_t np : {2u, 3u, 5u}) {
      std::vector<size_t> rcut(np + 1), scut(np + 1);
      rcut[0] = scut[0] = 0;
      rcut[np] = r.size();
      scut[np] = s.size();
      for (size_t k = 1; k < np; ++k) {
        rcut[k] = k * r.size() / np;
        scut[k] = static_cast<size_t>(
            std::lower_bound(s.data(), s.data() + s.size(), r[rcut[k]], less) -
            s.data());
      }
      std::vector<Region> want;
      obs::OpCounters want_c;
      bool first = true;
      for (const KernelTable* kt : AvailableTables()) {
        std::vector<Region> got;
        obs::OpCounters got_c;
        for (size_t k = 0; k < np; ++k) {
          kt->union_span(r.data() + rcut[k], r.data() + rcut[k + 1],
                         s.data() + scut[k], s.data() + scut[k + 1], &got,
                         &got_c);
        }
        if (first) {
          want = got;
          want_c = got_c;
          first = false;
        } else {
          ASSERT_EQ(want, got) << kt->name << " np=" << np;
          ExpectCountersEqual(want_c, got_c,
                              std::string(kt->name) + " np=" +
                                  std::to_string(np));
        }
      }
    }
  }
}

TEST(SimdResolveIsa, HonorsOverrideAndClampsToHardware) {
  util::CpuFeatures none;
  util::CpuFeatures sse_only;
  sse_only.sse42 = true;
  util::CpuFeatures full;
  full.sse42 = true;
  full.avx2 = true;

  // No override: best supported tier.
  EXPECT_EQ(Isa::kScalar, simd::ResolveIsa(nullptr, none));
  EXPECT_EQ(Isa::kSse4, simd::ResolveIsa(nullptr, sse_only));
  EXPECT_EQ(Isa::kAvx2, simd::ResolveIsa(nullptr, full));
  EXPECT_EQ(Isa::kAvx2, simd::ResolveIsa("", full));

  // Explicit downgrades are honored.
  EXPECT_EQ(Isa::kScalar, simd::ResolveIsa("scalar", full));
  EXPECT_EQ(Isa::kSse4, simd::ResolveIsa("sse4", full));
  EXPECT_EQ(Isa::kAvx2, simd::ResolveIsa("avx2", full));

  // Requests above the hardware clamp down; garbage is ignored.
  EXPECT_EQ(Isa::kSse4, simd::ResolveIsa("avx2", sse_only));
  EXPECT_EQ(Isa::kScalar, simd::ResolveIsa("avx2", none));
  EXPECT_EQ(Isa::kAvx2, simd::ResolveIsa("avx512", full));
}

TEST(SimdDispatch, TablesDegradeToSupportedTiers) {
  for (const KernelTable* kt : AvailableTables()) {
    EXPECT_STREQ(simd::IsaName(kt->isa), kt->name);
  }
  // KernelsFor never hands out a tier beyond the hardware.
  const util::CpuFeatures& f = util::CpuInfo();
  const KernelTable& best = simd::KernelsFor(Isa::kAvx2);
  if (!f.avx2) {
    EXPECT_NE(Isa::kAvx2, best.isa);
  }
  if (!f.sse42) {
    EXPECT_EQ(Isa::kScalar, best.isa);
  }
  EXPECT_EQ(Isa::kScalar, simd::ScalarKernels().isa);
}

TEST(SimdDispatch, SequentialOperatorsAgreeWithNaiveUnderActiveKernels) {
  // End-to-end: whatever tier REGAL_SIMD selected for this process, the
  // public operators must agree with the naive oracles.
  Rng rng(13);
  for (int round = 0; round < 10; ++round) {
    RegionSet r = RegionSet::FromSortedUnique(
        RandomRegions(rng, rng.Below(60), static_cast<Offset>(50)));
    RegionSet s = RegionSet::FromSortedUnique(
        RandomRegions(rng, rng.Below(60), static_cast<Offset>(50)));
    EXPECT_EQ(naive::Union(r, s).regions(), Union(r, s).regions());
    EXPECT_EQ(naive::Intersect(r, s).regions(), Intersect(r, s).regions());
    EXPECT_EQ(naive::Difference(r, s).regions(), Difference(r, s).regions());
    EXPECT_EQ(naive::Including(r, s).regions(), Including(r, s).regions());
    EXPECT_EQ(naive::Included(r, s).regions(), Included(r, s).regions());
    EXPECT_EQ(naive::Precedes(r, s).regions(), Precedes(r, s).regions());
    EXPECT_EQ(naive::Follows(r, s).regions(), Follows(r, s).regions());
  }
}

}  // namespace
}  // namespace regal
