// RegionSet handle suite (ctest label `cache`). A set is one immutable
// payload allocated at its exact size and shared by every copy, so the
// evaluator's memo, the result cache, query answers and cloned instances
// hold regions without copying them, and the cache's byte budget charges
// what each entry pins. Built into the cache suite's binary, so the TSAN
// and ASAN runs of `ctest -L cache` cover the cross-thread case.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "core/algebra.h"
#include "core/algebra_kernels.h"
#include "core/eval.h"
#include "core/extended.h"
#include "core/instance.h"
#include "doc/synthetic.h"
#include "exec/parallel_algebra.h"
#include "exec/thread_pool.h"
#include "query/engine.h"
#include "query/parser.h"
#include "text/text.h"
#include "util/random.h"

namespace regal {
namespace {

// capacity() == size(): the payload pins exactly its regions.
::testing::AssertionResult ExactSize(const RegionSet& set) {
  if (set.regions().capacity() == set.size()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "capacity " << set.regions().capacity() << " for " << set.size()
         << " regions";
}

std::string Words(Rng& rng, size_t min_size) {
  static const char* kWords[] = {"ab", "abc", "b", "ca", "AB", "bca", "xa"};
  std::string text;
  while (text.size() < min_size) {
    if (!text.empty()) text += " ";
    text += kWords[rng.Below(7)];
  }
  return text;
}

// A random laminar instance of names R0..R2 with text bound over it.
Instance MakeInstance(uint64_t seed, int num_regions) {
  Rng rng(seed);
  RandomInstanceOptions options;
  options.num_regions = num_regions;
  options.max_depth = 8;
  options.max_names = 3;
  Instance instance = RandomLaminarInstance(rng, options);
  instance.BindText(std::make_shared<Text>(
      Words(rng, 2 * static_cast<size_t>(num_regions) + 8)));
  return instance;
}

const RegionSet& Named(const Instance& instance, const std::string& name) {
  return *instance.Get(name).value();
}

// Every operator over (r, s), with `t` as BI's third operand.
std::vector<std::pair<std::string, RegionSet>> Sequential(
    const Instance& instance, const RegionSet& r, const RegionSet& s,
    const RegionSet& t, const std::vector<Token>& tokens) {
  return {{"union", Union(r, s)},
          {"intersect", Intersect(r, s)},
          {"difference", Difference(r, s)},
          {"including", Including(r, s)},
          {"included", Included(r, s)},
          {"precedes", Precedes(r, s)},
          {"follows", Follows(r, s)},
          {"select", SelectByTokens(r, tokens)},
          {"dincluding", DirectIncluding(instance, r, s)},
          {"dincluded", DirectIncluded(instance, r, s)},
          {"bi", BothIncluded(r, s, t)}};
}

TEST(RegionSetHandleTest, EveryOperatorResultIsExactSize) {
  // Large enough that the partitioned kernels cut R into four chunks.
  const Instance instance = MakeInstance(7, 30000);
  ASSERT_GT(Named(instance, "R1").size(), 4u * 2048u);
  const std::vector<Token> tokens =
      instance.word_index()->Matches(*Pattern::Parse("ab*"));
  const RegionSet empty;
  const std::vector<std::pair<std::string, std::string>> operands = {
      {"R0", "R1"}, {"R1", "R0"}, {"R0", "R0"}, {"R2", ""}};
  for (const auto& [rn, sn] : operands) {
    const RegionSet& r = Named(instance, rn);
    const RegionSet& s = sn.empty() ? empty : Named(instance, sn);
    const RegionSet& t = Named(instance, "R2");
    const auto sequential = Sequential(instance, r, s, t, tokens);
    for (const auto& [op, result] : sequential) {
      EXPECT_TRUE(ExactSize(result)) << op << " " << rn << "," << sn;
    }
    // The sweeps grow an empty output once, to exactly their keepers, so
    // the set adopts their buffer without copying it.
    const Region* rb = r.regions().data();
    const Region* sb = s.regions().data();
    std::vector<Region> including, included, selected;
    kernels::IncludingSpan(rb, rb + r.size(), sb, sb + s.size(),
                           kernels::kEmptyMin, &including);
    kernels::IncludedSpan(rb, rb + r.size(), sb, sb + s.size(),
                          kernels::kEmptyMax, &included);
    kernels::SelectSpan(rb, rb + r.size(), tokens.data(),
                        tokens.data() + tokens.size(), kernels::kEmptyMin,
                        &selected);
    EXPECT_EQ(including.capacity(), including.size()) << rn << "," << sn;
    EXPECT_EQ(included.capacity(), included.size()) << rn << "," << sn;
    EXPECT_EQ(selected.capacity(), selected.size()) << rn;
    for (int threads : {1, 2, 4}) {
      exec::ThreadPool pool(threads);
      exec::ParallelConfig cfg;
      cfg.pool = &pool;
      cfg.min_rows = 0;
      const std::vector<std::pair<std::string, RegionSet>> partitioned = {
          {"union", exec::ParallelUnion(r, s, cfg)},
          {"intersect", exec::ParallelIntersect(r, s, cfg)},
          {"difference", exec::ParallelDifference(r, s, cfg)},
          {"including", exec::ParallelIncluding(r, s, cfg)},
          {"included", exec::ParallelIncluded(r, s, cfg)},
          {"precedes", exec::ParallelPrecedes(r, s, cfg)},
          {"follows", exec::ParallelFollows(r, s, cfg)},
          {"select", exec::ParallelSelectByTokens(r, tokens, cfg)}};
      for (const auto& [op, result] : partitioned) {
        EXPECT_TRUE(ExactSize(result))
            << op << " " << rn << "," << sn << " threads=" << threads;
        for (const auto& [seq_op, seq_result] : sequential) {
          if (seq_op == op) {
            EXPECT_EQ(result, seq_result) << op;
          }
        }
      }
    }
  }
  // The naive oracles, on an instance small enough for them.
  const Instance small = MakeInstance(8, 300);
  const RegionSet& r = Named(small, "R0");
  const RegionSet& s = Named(small, "R1");
  const RegionSet& t = Named(small, "R2");
  const std::vector<Token> small_tokens =
      small.word_index()->Matches(*Pattern::Parse("ab*"));
  const std::vector<std::pair<std::string, RegionSet>> naive_results = {
      {"union", naive::Union(r, s)},
      {"intersect", naive::Intersect(r, s)},
      {"difference", naive::Difference(r, s)},
      {"including", naive::Including(r, s)},
      {"included", naive::Included(r, s)},
      {"precedes", naive::Precedes(r, s)},
      {"follows", naive::Follows(r, s)},
      {"select", naive::SelectByTokens(r, small_tokens)},
      {"dincluding", naive::DirectIncluding(small, r, s)},
      {"dincluded", naive::DirectIncluded(small, r, s)},
      {"bi", naive::BothIncluded(r, s, t)}};
  for (const auto& [op, result] : naive_results) {
    EXPECT_TRUE(ExactSize(result)) << "naive " << op;
  }
}

TEST(RegionSetHandleTest, FromUnsortedWithDuplicatesIsExactSize) {
  std::vector<Region> regions;
  regions.reserve(64);
  for (int i = 0; i < 20; ++i) {
    regions.push_back(Region{(i * 7) % 10, (i * 7) % 10 + 3});
  }
  const RegionSet set = RegionSet::FromUnsorted(std::move(regions));
  EXPECT_EQ(set.size(), 10u);
  EXPECT_TRUE(set.IsValid());
  EXPECT_TRUE(ExactSize(set));
  std::vector<Region> sorted = {{1, 2}, {3, 4}};
  sorted.reserve(100);
  EXPECT_TRUE(ExactSize(RegionSet::FromSortedUnique(std::move(sorted))));
  const RegionSet from_list{{5, 6}, {1, 2}, {5, 6}};
  EXPECT_EQ(from_list.size(), 2u);
  EXPECT_TRUE(ExactSize(from_list));
  // An empty set holds no payload at all.
  EXPECT_TRUE(RegionSet::FromUnsorted({}).empty());
  EXPECT_EQ(RegionSet().regions().capacity(), 0u);
}

TEST(RegionSetHandleTest, CopySharesThePayload) {
  const RegionSet set{{1, 9}, {2, 3}, {5, 7}};
  const RegionSet copy = set;
  EXPECT_EQ(copy.regions().data(), set.regions().data());
  RegionSet assigned;
  assigned = set;
  EXPECT_EQ(assigned.regions().data(), set.regions().data());
  EXPECT_EQ(assigned, set);
  // Reassigning a copy rebinds it and leaves the other handles alone.
  assigned = RegionSet{{4, 4}};
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(copy, set);
}

// Every canonical subtree of `e` that the engine's evaluator may cache.
void Subtrees(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() != OpKind::kName) out->push_back(e);
  for (const ExprPtr& c : e->children()) Subtrees(c, out);
}

const char* const kQueries[] = {
    "(R0 | R1) - R2",
    "R0 & (R1 | R0)",
    "R0 including R1",
    "R1 within R0",
    "(R0 before R1) | (R2 after R0)",
    "R0 dincluding R1",
    "R1 dwithin R0",
    "bi(R0, R1, R2)",
    "R0 matching \"ab*\"",
    "word \"ca\" within R1",
};

TEST(RegionSetHandleTest, CachedAndMemoizedResultsAreExactSize) {
  for (int threads : {0, 1, 2, 4}) {
    QueryEngine engine(MakeInstance(11, 20000));
    exec::ThreadPool pool(std::max(threads, 1));
    if (threads == 0) {
      engine.set_parallel_enabled(false);
    } else {
      engine.set_parallel_cost_threshold(0);
      engine.mutable_parallel_policy()->pool = &pool;
      engine.mutable_parallel_policy()->min_rows = 0;
    }
    for (const char* query : kQueries) {
      Result<QueryAnswer> answer = engine.Run(query, /*optimize=*/false);
      ASSERT_TRUE(answer.ok()) << query << ": " << answer.status().ToString();
      EXPECT_TRUE(ExactSize(answer->regions)) << query;
      // The memo publishes every operator result it computed.
      CacheKeyer keyer(&engine.instance());
      std::vector<ExprPtr> subtrees;
      Subtrees(*ParseQuery(query), &subtrees);
      for (const ExprPtr& e : subtrees) {
        std::optional<RegionSet> hit =
            engine.result_cache().Lookup(keyer.Key(e), keyer.Canonical(e));
        ASSERT_TRUE(hit.has_value()) << e->ToString();
        EXPECT_TRUE(ExactSize(*hit))
            << e->ToString() << " threads=" << threads;
      }
    }
  }
}

TEST(RegionSetHandleTest, WarmRunsShareTheCachedPayload) {
  QueryEngine engine(MakeInstance(12, 2000));
  const std::string query = "(R0 | R1) including R2";
  Result<QueryAnswer> cold = engine.Run(query);
  ASSERT_TRUE(cold.ok());
  ASSERT_FALSE(cold->regions.empty());
  Result<QueryAnswer> warm = engine.Run(query);
  Result<QueryAnswer> warmer = engine.Run(query);
  ASSERT_TRUE(warm.ok() && warmer.ok());
  EXPECT_EQ(warm->regions.regions().data(), cold->regions.regions().data());
  EXPECT_EQ(warmer->regions.regions().data(),
            cold->regions.regions().data());
  CacheKeyer keyer(&engine.instance());
  const ExprPtr executed = warm->executed;
  std::optional<RegionSet> cached = engine.result_cache().Lookup(
      keyer.Key(executed), keyer.Canonical(executed));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->regions().data(), warm->regions.regions().data());
  // A name scan shares the instance's set.
  Result<QueryAnswer> scan = engine.Run("R1");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->regions.regions().data(),
            Named(engine.instance(), "R1").regions().data());
}

TEST(RegionSetHandleTest, CloneSharesEverySetAndWritesStayLocal) {
  QueryEngine source(MakeInstance(13, 2000));
  Result<QueryAnswer> earlier = source.Run("R0 | R1");
  ASSERT_TRUE(earlier.ok());
  const RegionSet earlier_regions = earlier->regions;
  const std::vector<Region> earlier_copy = earlier->regions.regions();
  const RegionSet r0 = Named(source.instance(), "R0");
  const std::vector<Region> r0_copy = r0.regions();

  QueryEngine clone(source.instance().Clone());
  for (const std::string& name : source.instance().names()) {
    EXPECT_EQ(Named(clone.instance(), name).regions().data(),
              Named(source.instance(), name).regions().data())
        << name;
  }
  ASSERT_TRUE(clone.ReplaceRegions("R0", RegionSet{{0, 1}}).ok());
  EXPECT_EQ(Named(clone.instance(), "R0"), (RegionSet{{0, 1}}));
  // The source still holds the very payload it had, with its regions.
  EXPECT_EQ(Named(source.instance(), "R0").regions().data(),
            r0.regions().data());
  EXPECT_EQ(Named(source.instance(), "R0").regions(), r0_copy);
  EXPECT_EQ(earlier->regions.regions(), earlier_copy);
  EXPECT_EQ(earlier->regions.regions().data(),
            earlier_regions.regions().data());
  Result<QueryAnswer> again = source.Run("R0 | R1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->regions.regions(), earlier_copy);
}

// Handles to one payload are copied and dropped on several threads while
// others sweep the regions: the reference count is the only shared write.
TEST(RegionSetHandleTest, HandlesCrossThreadsWhileReadersSweep) {
  std::vector<Region> regions;
  for (Offset i = 0; i < 4096; ++i) regions.push_back(Region{2 * i, 2 * i});
  const RegionSet shared = RegionSet::FromSortedUnique(std::move(regions));
  int64_t expected = 0;
  for (const Region& r : shared) expected += r.left;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int copier = 0; copier < 2; ++copier) {
    threads.emplace_back([&] {
      std::vector<RegionSet> held;
      for (int i = 0; i < 20000; ++i) {
        held.push_back(shared);
        if (held.size() > 8) held.erase(held.begin());
        RegionSet moved = std::move(held.front());
        held.front() = moved;
      }
      stop.store(true);
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&] {
      do {
        RegionSet local = shared;
        int64_t sum = 0;
        for (const Region& r : local) sum += r.left;
        if (sum != expected) mismatches.fetch_add(1);
      } while (!stop.load());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.size(), 4096u);
}

}  // namespace
}  // namespace regal
