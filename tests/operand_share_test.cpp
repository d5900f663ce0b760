// Operand sharing (ctest label `simd`): off the naive path, an operator
// whose result has an operand's size returns that operand's handle, since
// −, ∩, ⊃, ⊂, <, >, σ, ⊃_d, ⊂_d and BI keep a subset of their first
// operand (∩ of its second too) and ∪ a superset of both. Every operator
// runs on random sets built so that its result equals the first operand,
// equals the second (∪ and ∩), is empty, or is one region short, along the
// sequential path and partitioned at 1, 2 and 4 lanes. The contents must
// equal the naive oracle's, and the payload must be the operand's exactly
// when the contents are. Built into the SIMD suite's binary, which ctest
// runs once more under each REGAL_SIMD tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "core/eval.h"
#include "core/expr.h"
#include "core/instance.h"
#include "exec/thread_pool.h"
#include "safety/context.h"
#include "text/pattern.h"
#include "text/text.h"
#include "util/random.h"

namespace regal {
namespace {

// Block k of the document spans [100k, 100k + 99]. Its outer region holds
// an inner one and, after that, a late one, and the inner one is a word.
constexpr Offset kBlock = 100;
Region Outer(Offset k) { return Region{kBlock * k + 10, kBlock * k + 60}; }
Region Inner(Offset k) { return Region{kBlock * k + 20, kBlock * k + 25}; }
Region Late(Offset k) { return Region{kBlock * k + 40, kBlock * k + 45}; }

using Blocks = std::vector<Offset>;

RegionSet Of(const Blocks& blocks, Region (*slot)(Offset)) {
  std::vector<Region> regions;
  for (Offset k : blocks) regions.push_back(slot(k));
  return RegionSet::FromUnsorted(std::move(regions));
}

// One operator's operands, named A, B and C in the instance, plus the
// blocks whose word matches the σ pattern.
struct Case {
  std::string label;
  RegionSet a, b, c;
  Blocks matching;
};

// A random increasing run of blocks in [1, 4000]: block 0 and the blocks
// past 4000 stay free for regions before or after all of them.
Blocks RandomBlocks(Rng& rng, size_t n) {
  Blocks blocks;
  for (Offset k = 1; k <= 4000 && blocks.size() < n; ++k) {
    if (rng.Below(4000 - static_cast<uint64_t>(k) + 1) < n - blocks.size()) {
      blocks.push_back(k);
    }
  }
  return blocks;
}

Blocks Without(Blocks blocks, size_t i) {
  blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(i));
  return blocks;
}

Blocks With(Blocks blocks, Offset k) {
  blocks.push_back(k);
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

// Every other block of `blocks`, starting at the first.
Blocks Half(const Blocks& blocks) {
  Blocks half;
  for (size_t i = 0; i < blocks.size(); i += 2) half.push_back(blocks[i]);
  return half;
}

// The cases of one operator over the random blocks `k`. `drop` indexes the
// block a one-short case leaves out.
std::vector<Case> CasesFor(OpKind op, const Blocks& k, size_t drop) {
  const Offset fresh = 4001;  // A block no case starts with.
  const Blocks none;
  const RegionSet empty;
  switch (op) {
    case OpKind::kUnion:
      return {{"first", Of(k, Outer), Of(Half(k), Outer), empty, none},
              {"second", Of(Half(k), Outer), Of(k, Outer), empty, none},
              {"empty", empty, empty, empty, none},
              {"short", Of(k, Outer),
               Of(With(Without(k, drop), fresh), Outer), empty, none}};
    case OpKind::kIntersect:
      return {{"first", Of(Half(k), Outer), Of(k, Outer), empty, none},
              {"second", Of(k, Outer), Of(Half(k), Outer), empty, none},
              {"empty", Of(k, Outer), Of(k, Inner), empty, none},
              {"short", Of(k, Outer),
               Of(With(Without(k, drop), fresh), Outer), empty, none}};
    case OpKind::kDifference:
      return {{"first", Of(k, Outer), Of(k, Inner), empty, none},
              {"empty", Of(k, Outer), Of(k, Outer), empty, none},
              {"short", Of(k, Outer), Of({k[drop]}, Outer), empty, none}};
    case OpKind::kIncluding:
    case OpKind::kDirectIncluding:
      return {{"first", Of(k, Outer), Of(k, Inner), empty, none},
              {"empty", Of(k, Outer), Of({fresh}, Inner), empty, none},
              {"short", Of(k, Outer), Of(Without(k, drop), Inner), empty,
               none}};
    case OpKind::kIncluded:
    case OpKind::kDirectIncluded:
      return {{"first", Of(k, Inner), Of(k, Outer), empty, none},
              {"empty", Of(k, Inner), Of({fresh}, Outer), empty, none},
              {"short", Of(k, Inner), Of(Without(k, drop), Outer), empty,
               none}};
    case OpKind::kPrecedes:
      // Every outer region ends before a region of a later block starts,
      // and none before the inner region of its own block.
      return {{"first", Of(k, Outer), Of({fresh}, Outer), empty, none},
              {"empty", Of(k, Outer), Of({k.front()}, Inner), empty, none},
              {"short", Of(k, Outer), Of({k.back()}, Inner), empty, none}};
    case OpKind::kFollows:
      return {{"first", Of(k, Outer), Of({0}, Outer), empty, none},
              {"empty", Of(k, Outer), Of({k.back()}, Inner), empty, none},
              {"short", Of(k, Outer), Of({k.front()}, Inner), empty, none}};
    case OpKind::kSelect:
      return {{"first", Of(k, Outer), empty, empty, k},
              {"empty", Of(k, Outer), empty, empty, none},
              {"short", Of(k, Outer), empty, empty, Without(k, drop)}};
    case OpKind::kBothIncluded:
      return {{"first", Of(k, Outer), Of(k, Inner), Of(k, Late), none},
              {"empty", Of(k, Outer), Of(k, Inner), empty, none},
              {"short", Of(k, Outer), Of(k, Inner),
               Of(Without(k, drop), Late), none}};
    default:
      return {};
  }
}

// An instance holding the case's operands. For σ it is bound to a text
// whose inner word in block k is "abcabc" when k matches and "xyzxyz"
// otherwise.
Instance MakeInstance(OpKind op, const Case& c) {
  Instance instance;
  EXPECT_TRUE(instance.AddRegionSet("A", c.a).ok());
  EXPECT_TRUE(instance.AddRegionSet("B", c.b).ok());
  EXPECT_TRUE(instance.AddRegionSet("C", c.c).ok());
  if (op != OpKind::kSelect) return instance;
  std::string text(static_cast<size_t>(kBlock) * 4003, ' ');
  for (Offset k = 0; k <= 4002; ++k) {
    text.replace(static_cast<size_t>(Inner(k).left), 6, "xyzxyz");
  }
  for (Offset k : c.matching) {
    text.replace(static_cast<size_t>(Inner(k).left), 6, "abcabc");
  }
  instance.BindText(std::make_shared<Text>(std::move(text)));
  return instance;
}

ExprPtr ExprFor(OpKind op) {
  const ExprPtr a = Expr::Name("A");
  const ExprPtr b = Expr::Name("B");
  switch (op) {
    case OpKind::kUnion: return Expr::Union(a, b);
    case OpKind::kIntersect: return Expr::Intersect(a, b);
    case OpKind::kDifference: return Expr::Difference(a, b);
    case OpKind::kIncluding: return Expr::Including(a, b);
    case OpKind::kIncluded: return Expr::Included(a, b);
    case OpKind::kPrecedes: return Expr::Precedes(a, b);
    case OpKind::kFollows: return Expr::Follows(a, b);
    case OpKind::kSelect: return Expr::Select(*Pattern::Parse("abc*"), a);
    case OpKind::kDirectIncluding: return Expr::DirectIncluding(a, b);
    case OpKind::kDirectIncluded: return Expr::DirectIncluded(a, b);
    case OpKind::kBothIncluded:
      return Expr::BothIncluded(a, b, Expr::Name("C"));
    default: return nullptr;
  }
}

const OpKind kOperators[] = {
    OpKind::kUnion,          OpKind::kIntersect,      OpKind::kDifference,
    OpKind::kIncluding,      OpKind::kIncluded,       OpKind::kPrecedes,
    OpKind::kFollows,        OpKind::kSelect,         OpKind::kDirectIncluding,
    OpKind::kDirectIncluded, OpKind::kBothIncluded};

const Region* Payload(const RegionSet& set) { return set.regions().data(); }

TEST(OperandShareTest, ResultEqualToAnOperandIsThatOperand) {
  Rng rng(2024);
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  std::vector<ParallelEvalPolicy> policies;
  for (int lanes : {1, 2, 4}) {
    pools.push_back(std::make_unique<exec::ThreadPool>(lanes));
    ParallelEvalPolicy policy;
    policy.pool = pools.back().get();
    policy.min_rows = 0;
    policies.push_back(policy);
  }
  for (OpKind op : kOperators) {
    for (int round = 0; round < 3; ++round) {
      const Blocks k = RandomBlocks(rng, 2 + rng.Below(1500));
      const size_t drop = rng.Below(k.size());
      for (const Case& c : CasesFor(op, k, drop)) {
        const std::string what = std::string(OpKindToken(op)) + " " +
                                 c.label + " round=" + std::to_string(round);
        const Instance instance = MakeInstance(op, c);
        const ExprPtr e = ExprFor(op);
        const RegionSet& a = *instance.Get("A").value();
        const RegionSet& b = *instance.Get("B").value();
        const bool symmetric =
            op == OpKind::kUnion || op == OpKind::kIntersect;

        EvalOptions naive_options;
        naive_options.use_naive = true;
        Result<RegionSet> oracle = Evaluate(instance, e, naive_options);
        ASSERT_TRUE(oracle.ok()) << what;
        const RegionSet& want = oracle.value();
        if (c.label == "first") {
          EXPECT_EQ(want, a) << what;
        } else if (c.label == "second") {
          EXPECT_EQ(want, b) << what;
        } else if (c.label == "empty") {
          EXPECT_TRUE(want.empty()) << what;
        } else {
          EXPECT_FALSE(want == a) << what;
          EXPECT_FALSE(symmetric && want == b) << what;
        }
        // The naive oracle builds its own payloads.
        if (!want.empty()) {
          EXPECT_NE(Payload(want), Payload(a)) << what;
          EXPECT_NE(Payload(want), Payload(b)) << what;
        }

        std::vector<std::pair<std::string, EvalOptions>> paths = {
            {"sequential", EvalOptions{}}};
        for (size_t p = 0; p < policies.size(); ++p) {
          EvalOptions options;
          options.parallel = &policies[p];
          paths.emplace_back(
              "lanes=" + std::to_string(pools[p]->num_threads()), options);
        }
        for (const auto& [path, options] : paths) {
          Result<RegionSet> got = Evaluate(instance, e, options);
          ASSERT_TRUE(got.ok()) << what << " " << path;
          ASSERT_EQ(got->regions(), want.regions()) << what << " " << path;
          if (got->empty()) continue;  // An empty set holds no payload.
          if (want == a) {
            EXPECT_EQ(Payload(*got), Payload(a)) << what << " " << path;
          } else if (symmetric && want == b) {
            EXPECT_EQ(Payload(*got), Payload(b)) << what << " " << path;
          } else {
            EXPECT_NE(Payload(*got), Payload(a)) << what << " " << path;
            EXPECT_NE(Payload(*got), Payload(b)) << what << " " << path;
          }
        }
      }
    }
  }
}

// A cancel landing while the root's partitioned kernel runs leaves a
// truncated set, whose size proves nothing: such a query shares no operand
// and publishes nothing. The sweep of cancel delays races the kernel on
// purpose; for every interleaving an OK answer is the whole operand, shared,
// and whatever reached the cache is the whole answer.
TEST(OperandShareTest, TrippedQuerySharesAndPublishesNothing) {
  // b ⊆ a, so a ∪ b = a; large enough that the kernel outlasts a cancel.
  std::vector<Region> all, half;
  for (Offset i = 0; i < (1 << 19); ++i) {
    all.push_back(Region{4 * i, 4 * i + 1});
    if (i % 2 == 0) half.push_back(all.back());
  }
  Instance instance;
  ASSERT_TRUE(
      instance.AddRegionSet("a", RegionSet::FromSortedUnique(std::move(all)))
          .ok());
  ASSERT_TRUE(
      instance.AddRegionSet("b", RegionSet::FromSortedUnique(std::move(half)))
          .ok());
  const RegionSet& a = *instance.Get("a").value();
  const ExprPtr e = Expr::Union(Expr::Name("a"), Expr::Name("b"));
  exec::ThreadPool pool(4);
  ParallelEvalPolicy policy;
  policy.pool = &pool;
  policy.min_rows = 0;
  int cancelled = 0;
  for (int trial = 0; trial < 24; ++trial) {
    cache::ResultCache cache;
    safety::QueryLimits limits;
    limits.cancel = std::make_shared<safety::CancelToken>();
    safety::QueryContext context(limits);
    EvalOptions options;
    options.parallel = &policy;
    options.context = &context;
    options.result_cache = &cache;
    std::thread canceller([&limits, trial] {
      std::this_thread::sleep_for(std::chrono::microseconds(trial * 25));
      limits.cancel->Cancel();
    });
    Result<RegionSet> answer = Evaluate(instance, e, options);
    canceller.join();
    if (answer.ok()) {
      EXPECT_EQ(*answer, a) << "trial=" << trial;
      EXPECT_EQ(Payload(*answer), Payload(a)) << "trial=" << trial;
    } else {
      EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
          << "trial=" << trial;
      ++cancelled;
    }
    CacheKeyer keyer(&instance);
    std::optional<RegionSet> cached =
        cache.Lookup(keyer.Key(e), keyer.Canonical(e));
    if (cached.has_value()) {
      EXPECT_EQ(*cached, a) << "trial=" << trial;
    }
  }
  EXPECT_GT(cancelled, 0);
}

}  // namespace
}  // namespace regal
