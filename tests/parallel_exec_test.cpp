// Differential suite for the exec/ parallel execution layer: every parallel
// kernel and evaluator mode must be *bit-identical* to its sequential
// counterpart, for every thread count, on random and adversarial inputs.
// Built as its own ctest binary with label `parallel` so a TSAN
// configuration (-DREGAL_SANITIZE=thread) can run exactly this suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/algebra.h"
#include "core/eval.h"
#include "doc/dictionary.h"
#include "doc/synthetic.h"
#include "exec/parallel_algebra.h"
#include "exec/thread_pool.h"
#include "obs/counters.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "text/text.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace regal {
namespace {

using exec::ParallelConfig;
using exec::ThreadPool;

const int kThreadCounts[] = {1, 2, 4, 8};

// ---------------------------------------------------------------------------
// Thread pool.

TEST(ThreadPoolTest, ParseThreads) {
  EXPECT_EQ(ThreadPool::ParseThreads(nullptr, 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("abc", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("4abc", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("0", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("-2", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("513", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("1", 3), 1);
  EXPECT_EQ(ThreadPool::ParseThreads("8", 3), 8);
  EXPECT_EQ(ThreadPool::ParseThreads("512", 3), 512);
}

TEST(ThreadPoolTest, NumThreadsCountsCallerLane) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.ParallelFor(count, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, SubmitWaitRunsTask) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    std::atomic<int> value{0};
    ThreadPool::TaskHandle h = pool.Submit([&] { value.store(42); });
    h.Wait();
    EXPECT_EQ(value.load(), 42);
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    std::atomic<int> total{0};
    pool.ParallelFor(8, [&](size_t) {
      pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
  }
}

TEST(ThreadPoolTest, WaitInsideSubmittedTaskDoesNotDeadlock) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    std::atomic<int> value{0};
    ThreadPool::TaskHandle outer = pool.Submit([&] {
      ThreadPool::TaskHandle inner = pool.Submit([&] { value.fetch_add(1); });
      inner.Wait();
      value.fetch_add(1);
    });
    outer.Wait();
    EXPECT_EQ(value.load(), 2);
  }
}

// ---------------------------------------------------------------------------
// Operator kernels: parallel == sequential, bit for bit.

RegionSet RandomSet(Rng& rng, size_t n, Offset span) {
  std::vector<Region> regions;
  regions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Offset left = static_cast<Offset>(rng.Below(static_cast<uint64_t>(span)));
    Offset len = static_cast<Offset>(rng.Below(64));
    regions.push_back(Region{left, left + len});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

// Fully nested chain [i, 2n-i]: every region includes all later ones — the
// worst case for containment windows.
RegionSet NestedChain(int n) {
  std::vector<Region> regions;
  for (int i = 0; i < n; ++i) {
    regions.push_back(Region{i, 2 * n - i});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

// All regions share one left endpoint (ties broken by right DESC in document
// order), stressing the partition boundary search on equal keys.
RegionSet EqualLefts(int n) {
  std::vector<Region> regions;
  for (int i = 0; i < n; ++i) {
    regions.push_back(Region{100, 101 + i});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

void ExpectAllOperatorsMatch(const RegionSet& r, const RegionSet& s,
                             const ParallelConfig& cfg, const char* what) {
  EXPECT_EQ(exec::ParallelUnion(r, s, cfg), Union(r, s)) << what;
  EXPECT_EQ(exec::ParallelIntersect(r, s, cfg), Intersect(r, s)) << what;
  EXPECT_EQ(exec::ParallelDifference(r, s, cfg), Difference(r, s)) << what;
  EXPECT_EQ(exec::ParallelIncluding(r, s, cfg), Including(r, s)) << what;
  EXPECT_EQ(exec::ParallelIncluded(r, s, cfg), Included(r, s)) << what;
  EXPECT_EQ(exec::ParallelPrecedes(r, s, cfg), Precedes(r, s)) << what;
  EXPECT_EQ(exec::ParallelFollows(r, s, cfg), Follows(r, s)) << what;
}

class ParallelKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelKernelTest, MatchesSequentialOnRandomSets) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(7 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    RegionSet r = RandomSet(rng, 1 + rng.Below(4000), 5000);
    RegionSet s = RandomSet(rng, 1 + rng.Below(4000), 5000);
    ExpectAllOperatorsMatch(r, s, cfg, "random");
  }
}

TEST_P(ParallelKernelTest, MatchesSequentialOnAdversarialSets) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(11);
  RegionSet empty;
  RegionSet random = RandomSet(rng, 3000, 4000);
  RegionSet nested = NestedChain(3000);
  RegionSet equal_lefts = EqualLefts(3000);
  RegionSet tiny = RandomSet(rng, 3, 4000);  // Skew: gallop-heavy merges.
  const RegionSet* sets[] = {&empty, &random, &nested, &equal_lefts, &tiny};
  for (const RegionSet* r : sets) {
    for (const RegionSet* s : sets) {
      ExpectAllOperatorsMatch(*r, *s, cfg, "adversarial");
    }
  }
}

TEST_P(ParallelKernelTest, MatchesSequentialOnLaminarInstances) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(23 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstanceOptions options;
    options.num_regions = 400;
    options.max_names = 2;
    Instance instance = RandomLaminarInstance(rng, options);
    auto r = instance.Get("R0");
    auto s = instance.Get("R1");
    ASSERT_TRUE(r.ok() && s.ok());
    ExpectAllOperatorsMatch(**r, **s, cfg, "laminar");
  }
}

TEST_P(ParallelKernelTest, SelectByTokensMatchesSequential) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    RegionSet r = RandomSet(rng, 2000, 5000);
    std::vector<Token> tokens;
    size_t n = rng.Below(500);
    for (size_t i = 0; i < n; ++i) {
      Offset left = static_cast<Offset>(rng.Below(5000));
      tokens.push_back(Token{left, left + static_cast<Offset>(rng.Below(8))});
    }
    std::sort(tokens.begin(), tokens.end(), [](const Token& a, const Token& b) {
      return a.left != b.left ? a.left < b.left : a.right < b.right;
    });
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    EXPECT_EQ(exec::ParallelSelectByTokens(r, tokens, cfg),
              SelectByTokens(r, tokens));
  }
}

// The partitioned semi-joins see witnesses outside a chunk's slice of R only
// through the chunk's seed. Each case below runs at these partition counts
// over at least 7 * 2048 rows of R, enough for PartitionCount to grant all
// 7 chunks.
const int kPartitionCounts[] = {2, 3, 4, 7};

std::vector<Token> AsTokens(const RegionSet& s) {
  std::vector<Token> tokens;
  for (const Region& x : s) tokens.push_back(Token{x.left, x.right});
  std::sort(tokens.begin(), tokens.end(), [](const Token& a, const Token& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  });
  return tokens;
}

// Every chunk's only witness lies in another chunk: one small region at the
// far end for ⊃ and σ, one spanning region at the start for ⊂. Every other
// region of R qualifies.
TEST_P(ParallelKernelTest, SemiJoinWitnessInAnotherChunk) {
  ThreadPool pool(GetParam());
  constexpr int kRows = 7 * 2048 + 101;
  constexpr Offset kFar = 1 << 20;
  std::vector<Region> containers, contained, want_including, want_included;
  for (Offset i = 0; i < kRows; ++i) {
    containers.push_back(Region{i, kFar - 1 + i % 2});
    if (i % 2 == 1) want_including.push_back(containers.back());
    contained.push_back(Region{1 + i, kFar + i % 2});
    if (i % 2 == 0) want_included.push_back(contained.back());
  }
  const RegionSet r_including = RegionSet::FromUnsorted(containers);
  const RegionSet r_included = RegionSet::FromUnsorted(contained);
  const RegionSet end_witness{Region{kFar, kFar}};
  const std::vector<Token> end_token{Token{kFar, kFar}};
  const RegionSet start_witness{Region{0, kFar}};
  const RegionSet including = RegionSet::FromUnsorted(want_including);
  const RegionSet included = RegionSet::FromUnsorted(want_included);
  ASSERT_EQ(Including(r_including, end_witness), including);
  ASSERT_EQ(SelectByTokens(r_including, end_token), including);
  ASSERT_EQ(Included(r_included, start_witness), included);
  for (int parts : kPartitionCounts) {
    ParallelConfig cfg{&pool, /*min_rows=*/0, parts};
    EXPECT_EQ(exec::ParallelIncluding(r_including, end_witness, cfg),
              including)
        << parts;
    EXPECT_EQ(exec::ParallelSelectByTokens(r_including, end_token, cfg),
              including)
        << parts;
    EXPECT_EQ(exec::ParallelIncluded(r_included, start_witness, cfg), included)
        << parts;
  }
}

// `runs` runs of `length` regions sharing one left endpoint, each with a
// distinct right endpoint. With `gap` larger than any run's extent the runs
// are disjoint, so a region's only ⊃/⊂ witnesses are in its own run.
RegionSet EqualLeftRuns(Rng& rng, int runs, int length, Offset gap) {
  std::vector<Region> regions;
  for (int g = 0; g < runs; ++g) {
    for (int j = 0; j < length; ++j) {
      const Offset left = g * gap;
      regions.push_back(
          Region{left, left + 1 + 3 * j + static_cast<Offset>(rng.Below(3))});
    }
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

// Every cut at 2, 3, 4 and 7 partitions falls inside an equal-left run of R
// (97 * 151 rows; checked below), so an equal-left group that straddles a
// cut must be searched on the correct side of the chunk's seed.
TEST_P(ParallelKernelTest, SemiJoinCutsInsideEqualLeftRuns) {
  ThreadPool pool(GetParam());
  Rng rng(53);
  constexpr int kRuns = 151;
  constexpr int kLength = 97;
  const RegionSet disjoint = EqualLeftRuns(rng, kRuns, kLength, 1000);
  const RegionSet overlapping = EqualLeftRuns(rng, kRuns, kLength, 4);
  const RegionSet other = EqualLeftRuns(rng, kRuns, kLength, 4);
  ASSERT_EQ(disjoint.size(), static_cast<size_t>(kRuns * kLength));
  ASSERT_EQ(overlapping.size(), disjoint.size());
  const std::vector<Token> tokens = AsTokens(other);
  const std::pair<const RegionSet*, const RegionSet*> cases[] = {
      {&disjoint, &disjoint},
      {&overlapping, &overlapping},
      {&overlapping, &other}};
  for (int parts : kPartitionCounts) {
    const size_t np = static_cast<size_t>(parts);
    for (size_t k = 1; k < np; ++k) {
      const size_t cut = k * disjoint.size() / np;
      ASSERT_EQ(disjoint[cut - 1].left, disjoint[cut].left) << parts;
      ASSERT_EQ(overlapping[cut - 1].left, overlapping[cut].left) << parts;
    }
    ParallelConfig cfg{&pool, /*min_rows=*/0, parts};
    for (const auto& [r, s] : cases) {
      EXPECT_EQ(exec::ParallelIncluding(*r, *s, cfg), Including(*r, *s))
          << parts;
      EXPECT_EQ(exec::ParallelIncluded(*r, *s, cfg), Included(*r, *s))
          << parts;
      EXPECT_EQ(exec::ParallelSelectByTokens(*r, tokens, cfg),
                SelectByTokens(*r, tokens))
          << parts;
    }
  }
}

// Runs `op` under a fresh counter sink and returns its answer and charge.
template <typename Op>
std::pair<RegionSet, obs::OpCounters> Counted(Op op) {
  obs::OpCounters counters;
  obs::OpCounters* previous = obs::SwapCountersSink(&counters);
  RegionSet out = op();
  obs::SwapCountersSink(previous);
  return {std::move(out), counters};
}

// ⊃, ⊂, σ, < and > charge from the operand sizes alone, so their counters
// equal the sequential operator's at every thread count. The set merges
// restart their gallop and dense-burst decisions at every cut, so for them
// only the answers must match.
TEST_P(ParallelKernelTest, SizeChargedCountersMatchSequential) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(41 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 4; ++trial) {
    RegionSet r = RandomSet(rng, 8 * 2048 + rng.Below(4000), 40000);
    RegionSet s = RandomSet(rng, 1 + rng.Below(20000), 40000);
    const std::vector<Token> tokens = AsTokens(RandomSet(rng, 3000, 40000));
    using Binary = RegionSet (*)(const RegionSet&, const RegionSet&);
    using Partitioned = RegionSet (*)(const RegionSet&, const RegionSet&,
                                      const ParallelConfig&);
    const struct {
      const char* name;
      Binary sequential;
      Partitioned parallel;
      bool same_counters;
    } ops[] = {
        {"union", &Union, &exec::ParallelUnion, false},
        {"intersect", &Intersect, &exec::ParallelIntersect, false},
        {"difference", &Difference, &exec::ParallelDifference, false},
        {"including", &Including, &exec::ParallelIncluding, true},
        {"included", &Included, &exec::ParallelIncluded, true},
        {"precedes", &Precedes, &exec::ParallelPrecedes, true},
        {"follows", &Follows, &exec::ParallelFollows, true},
    };
    for (const auto& op : ops) {
      const auto want = Counted([&] { return op.sequential(r, s); });
      const auto got = Counted([&] { return op.parallel(r, s, cfg); });
      EXPECT_EQ(got.first, want.first) << op.name;
      if (!op.same_counters) continue;
      EXPECT_EQ(got.second.comparisons, want.second.comparisons) << op.name;
      EXPECT_EQ(got.second.merge_steps, want.second.merge_steps) << op.name;
      EXPECT_EQ(got.second.index_probes, want.second.index_probes) << op.name;
    }
    const auto want = Counted([&] { return SelectByTokens(r, tokens); });
    const auto got =
        Counted([&] { return exec::ParallelSelectByTokens(r, tokens, cfg); });
    EXPECT_EQ(got.first, want.first) << "select";
    EXPECT_EQ(got.second.comparisons, want.second.comparisons) << "select";
    EXPECT_EQ(got.second.merge_steps, want.second.merge_steps) << "select";
    EXPECT_EQ(got.second.index_probes, want.second.index_probes) << "select";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelKernelTest,
                         ::testing::ValuesIn(kThreadCounts));

// ---------------------------------------------------------------------------
// Evaluator and engine: parallel answers and stats match sequential ones.

class ParallelEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEvalTest, EvaluatorMatchesSequentialOnRandomDags) {
  ThreadPool pool(GetParam());
  ParallelEvalPolicy policy;
  policy.pool = &pool;
  policy.min_rows = 0;
  Rng rng(41 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstanceOptions options;
    options.num_regions = 120;
    Instance instance = RandomLaminarInstance(rng, options);
    // A DAG with a shared subtree: (R0 | R1) appears under both operands.
    ExprPtr shared =
        Expr::Binary(OpKind::kUnion, Expr::Name("R0"), Expr::Name("R1"));
    ExprPtr left = Expr::Binary(OpKind::kIncluding, shared, Expr::Name("R2"));
    ExprPtr right = Expr::Binary(OpKind::kIncluded, Expr::Name("R2"), shared);
    ExprPtr e = Expr::Binary(OpKind::kDifference, left, right);

    Evaluator sequential(&instance);
    auto expected = sequential.Evaluate(e);
    ASSERT_TRUE(expected.ok());

    EvalOptions parallel_options;
    parallel_options.parallel = &policy;
    Evaluator parallel(&instance, parallel_options);
    auto actual = parallel.Evaluate(e);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(*actual, *expected);
    // Memoization runs every node exactly once in both modes, so the stats
    // are deterministic and identical.
    EXPECT_EQ(parallel.stats().operator_evals,
              sequential.stats().operator_evals);
    EXPECT_EQ(parallel.stats().rows_scanned, sequential.stats().rows_scanned);
    EXPECT_EQ(parallel.stats().rows_produced,
              sequential.stats().rows_produced);
  }
}

TEST_P(ParallelEvalTest, EngineAnswersMatchWithParallelForcedOnAndOff) {
  DictionaryGeneratorOptions options;
  options.entries = 30;
  auto engine = QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  ASSERT_TRUE(engine.ok());
  // The sequential/parallel comparison needs both runs to actually execute;
  // the result cache would answer the second run without evaluating.
  engine->set_result_cache_enabled(false);
  ThreadPool pool(GetParam());

  const char* queries[] = {
      "sense within entry within dictionary",
      "(quote within sense) | (def within sense)",
      "entry including (headword matching \"term*\")",
  };
  for (const char* query : queries) {
    engine->set_parallel_enabled(false);
    auto sequential = engine->Run(query);
    ASSERT_TRUE(sequential.ok()) << query;

    engine->set_parallel_enabled(true);
    engine->set_parallel_cost_threshold(0);  // Force the parallel path.
    engine->mutable_parallel_policy()->pool = &pool;
    engine->mutable_parallel_policy()->min_rows = 0;
    auto parallel = engine->Run(query);
    ASSERT_TRUE(parallel.ok()) << query;

    EXPECT_EQ(parallel->regions, sequential->regions) << query;
    EXPECT_EQ(parallel->eval_stats.operator_evals,
              sequential->eval_stats.operator_evals)
        << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEvalTest,
                         ::testing::ValuesIn(kThreadCounts));

TEST(ParallelEvalTest, ExplainAnalyzeStillWorksOnTheParallelPath) {
  DictionaryGeneratorOptions options;
  options.entries = 20;
  auto engine = QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  ASSERT_TRUE(engine.ok());
  engine->set_parallel_cost_threshold(0);
  engine->mutable_parallel_policy()->min_rows = 0;
  auto answer = engine->Run("explain analyze sense within entry");
  ASSERT_TRUE(answer.ok());
  ASSERT_TRUE(answer->profile.has_value());
  EXPECT_TRUE(answer->profile->analyzed);
  EXPECT_EQ(answer->profile->plan.rows_out,
            static_cast<int64_t>(answer->regions.size()));
}

// The region tree behind ⊃_d and ⊂_d is built on first use. Queries that
// arrive together on a fresh catalog all hold the catalog lock shared, so
// they race to that first use: every one must see the whole tree, and
// every concurrent answer must equal the single-threaded one.
TEST(RegionTreeTest, ConcurrentFirstUseMatchesSingleThreadedAnswers) {
  DictionaryGeneratorOptions options;
  options.entries = 120;
  const std::string source = GenerateDictionarySource(options);
  const std::vector<std::string> queries = {
      "entry dincluding sense",
      "sense dwithin entry",
      "bi(entry, headword, sense)",
      "sense dincluding (quote dincluding author)",
      "bi(sense, def, quote dwithin sense)",
      "(author dwithin quote) within entry",
  };
  auto reference = QueryEngine::FromSgmlSource(source);
  ASSERT_TRUE(reference.ok()) << reference.status();
  std::vector<RegionSet> expected;
  for (const std::string& query : queries) {
    auto answer = reference->Run(query);
    ASSERT_TRUE(answer.ok()) << query << ": " << answer.status();
    ASSERT_FALSE(answer->regions.empty()) << query;
    expected.push_back(answer->regions);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    auto engine = QueryEngine::FromSgmlSource(source);
    ASSERT_TRUE(engine.ok()) << engine.status();
    // Every run must evaluate, so no thread is answered from the cache.
    engine->set_result_cache_enabled(false);
    std::atomic<int> ready{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(t)) % queries.size();
          auto answer = engine->Run(queries[q]);
          if (!answer.ok() || answer->regions != expected[q]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Lock-free telemetry primitives. These hammers live in the parallel suite
// so the TSAN configuration (-DREGAL_SANITIZE=thread) validates the relaxed
// atomics in obs/metrics.h and the flight-recorder ring.

TEST(ObsHammerTest, HistogramObserveIsExactUnderConcurrency) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram(
      "hammer_ms", {}, std::vector<double>{1.0, 8.0, 64.0});
  obs::Gauge* inflight = registry.GetGauge("hammer_inflight");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe((t * kPerThread + i) % 100);
        inflight->Add(1);
        inflight->Add(-1);
      }
    });
  }
  // Concurrent scrapes while writers hammer: each snapshot must be
  // internally sane (cumulative buckets monotone, count within range) even
  // though it may interleave with in-flight observations.
  for (int scrape = 0; scrape < 50; ++scrape) {
    std::vector<int64_t> cumulative = h->CumulativeBucketCounts();
    ASSERT_EQ(cumulative.size(), 4u);
    for (size_t i = 1; i < cumulative.size(); ++i) {
      EXPECT_LE(cumulative[i - 1], cumulative[i]);
    }
    EXPECT_LE(h->count(), int64_t{kThreads} * kPerThread);
  }
  for (std::thread& t : threads) t.join();

  // Quiesced totals are exact: every fetch_add landed, the CAS-loop double
  // sum lost no update (integer values stay exactly representable).
  EXPECT_EQ(h->count(), int64_t{kThreads} * kPerThread);
  // Sum of k % 100 over k = 0..159999: 1600 full cycles of 0+..+99.
  EXPECT_DOUBLE_EQ(h->sum(), 1600.0 * 4950.0);
  std::vector<int64_t> cumulative = h->CumulativeBucketCounts();
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_EQ(cumulative[0], 1600 * 2);    // values 0, 1
  EXPECT_EQ(cumulative[1], 1600 * 9);    // values 0..8
  EXPECT_EQ(cumulative[2], 1600 * 65);   // values 0..64
  EXPECT_EQ(cumulative[3], int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(inflight->value(), 0.0);
}

TEST(ObsHammerTest, FlightRecorderConcurrentRecordScrapeAndRetune) {
  // Every record is "slow" (threshold 0), so route the slow-query log to a
  // capture sink instead of spamming stderr for 8000 records.
  obs::EventLog quiet_log(std::make_shared<obs::CaptureSink>());
  obs::FlightRecorderOptions options;
  options.capacity = 64;
  options.slow_threshold_ms = 0;  // Keep everything: maximal ring churn.
  options.sample_period = 0;
  options.log = &quiet_log;
  obs::FlightRecorder recorder(options);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        obs::QueryRecord record;
        record.query_id = recorder.NextQueryId();
        record.ts_ms = 1;  // Skip the wall-clock stamp in the hot loop.
        record.elapsed_ms = static_cast<double>(i % 7);
        recorder.Record(std::move(record));
      }
    });
  }
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<obs::QueryRecord> snapshot = recorder.Snapshot();
      EXPECT_LE(snapshot.size(), 64u);
      // The tunables race with in-flight keep decisions by design; the
      // atomics just keep that race benign.
      recorder.set_slow_threshold_ms(snapshot.size() % 2 == 0 ? 0.0 : -1.0);
      recorder.set_sample_period(static_cast<uint32_t>(snapshot.size() % 3));
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(recorder.entries(), 64u);
  EXPECT_EQ(recorder.last_query_id(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace regal
