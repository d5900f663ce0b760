// Cross-query result cache suite (ctest label `cache`): canonical
// expression fingerprints, the sharded LRU ResultCache, stamp-based
// invalidation, governance interplay and concurrent sharing. Built as its
// own binary so a TSAN configuration (-DREGAL_SANITIZE=thread) can run just
// these tests: ctest -L cache.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "core/eval.h"
#include "core/expr.h"
#include "core/instance.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "doc/synthetic.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/parser.h"
#include "safety/context.h"
#include "safety/failpoint.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

using cache::CacheQueryStats;
using cache::ResultCache;
using cache::ResultCacheOptions;
using safety::CancelToken;
using safety::FailpointRegistry;
using safety::QueryLimits;

RegionSet MakeSet(std::vector<Region> regions) {
  return RegionSet::FromUnsorted(std::move(regions));
}

Instance SmallInstance() {
  Instance instance;
  EXPECT_TRUE(
      instance.AddRegionSet("a", MakeSet({{0, 9}, {20, 29}, {40, 49}})).ok());
  EXPECT_TRUE(instance.AddRegionSet("b", MakeSet({{0, 9}, {60, 69}})).ok());
  EXPECT_TRUE(instance.AddRegionSet("c", MakeSet({{20, 29}})).ok());
  return instance;
}

// Every test leaves the process-wide failpoint registry clean.
class CacheTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Default().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Canonical form: hash / equality on expressions
// ---------------------------------------------------------------------------

using CanonicalTest = CacheTest;

TEST_F(CanonicalTest, CommutedUnionIsCanonicallyEqual) {
  ExprPtr ab = Expr::Union(Expr::Name("a"), Expr::Name("b"));
  ExprPtr ba = Expr::Union(Expr::Name("b"), Expr::Name("a"));
  EXPECT_EQ(ab->CanonicalHash(), ba->CanonicalHash());
  EXPECT_TRUE(ab->CanonicalEquals(*ba));
  // Ordinary structural equality still distinguishes them.
  EXPECT_FALSE(ab->Equals(*ba));
}

TEST_F(CanonicalTest, AssociativeRegroupingIsCanonicallyEqual) {
  ExprPtr left = Expr::Union(Expr::Union(Expr::Name("a"), Expr::Name("b")),
                             Expr::Name("c"));
  ExprPtr right = Expr::Union(Expr::Name("a"),
                              Expr::Union(Expr::Name("b"), Expr::Name("c")));
  ExprPtr shuffled = Expr::Union(Expr::Name("c"),
                                 Expr::Union(Expr::Name("b"), Expr::Name("a")));
  EXPECT_TRUE(left->CanonicalEquals(*right));
  EXPECT_TRUE(left->CanonicalEquals(*shuffled));
  EXPECT_EQ(left->CanonicalHash(), shuffled->CanonicalHash());
}

TEST_F(CanonicalTest, CommutedIntersectIsCanonicallyEqual) {
  ExprPtr ab = Expr::Intersect(Expr::Name("a"), Expr::Name("b"));
  ExprPtr ba = Expr::Intersect(Expr::Name("b"), Expr::Name("a"));
  EXPECT_TRUE(ab->CanonicalEquals(*ba));
}

TEST_F(CanonicalTest, DuplicateOperandsCollapse) {
  // Union and intersection are idempotent, so `a | a` canonicalizes to `a`.
  ExprPtr aa = Expr::Union(Expr::Name("a"), Expr::Name("a"));
  ExprPtr a = Expr::Name("a");
  EXPECT_TRUE(aa->CanonicalEquals(*a));
  EXPECT_EQ(aa->CanonicalHash(), a->CanonicalHash());
}

TEST_F(CanonicalTest, RepeatedSelectionCollapses) {
  Pattern p = *Pattern::Parse("term*");
  ExprPtr once = Expr::Select(p, Expr::Name("a"));
  ExprPtr twice = Expr::Select(p, Expr::Select(p, Expr::Name("a")));
  EXPECT_TRUE(once->CanonicalEquals(*twice));
  EXPECT_EQ(once->CanonicalHash(), twice->CanonicalHash());
  // Different patterns do not collapse.
  Pattern q = *Pattern::Parse("other");
  ExprPtr mixed = Expr::Select(q, Expr::Select(p, Expr::Name("a")));
  EXPECT_FALSE(once->CanonicalEquals(*mixed));
}

TEST_F(CanonicalTest, DistinctOperatorsStayDistinct) {
  ExprPtr u = Expr::Union(Expr::Name("a"), Expr::Name("b"));
  ExprPtr i = Expr::Intersect(Expr::Name("a"), Expr::Name("b"));
  ExprPtr d = Expr::Difference(Expr::Name("a"), Expr::Name("b"));
  ExprPtr d_rev = Expr::Difference(Expr::Name("b"), Expr::Name("a"));
  EXPECT_FALSE(u->CanonicalEquals(*i));
  EXPECT_FALSE(u->CanonicalEquals(*d));
  // Difference is not commutative; operand order must survive.
  EXPECT_FALSE(d->CanonicalEquals(*d_rev));
  // Neither are the containment operators.
  ExprPtr within = Expr::Included(Expr::Name("a"), Expr::Name("b"));
  ExprPtr within_rev = Expr::Included(Expr::Name("b"), Expr::Name("a"));
  EXPECT_FALSE(within->CanonicalEquals(*within_rev));
}

TEST_F(CanonicalTest, ParsedAndBuiltExpressionsAgree) {
  ExprPtr parsed = *ParseQuery("(a within b) | (a & c)");
  ExprPtr built = Expr::Union(
      Expr::Intersect(Expr::Name("c"), Expr::Name("a")),
      Expr::Included(Expr::Name("a"), Expr::Name("b")));
  EXPECT_TRUE(parsed->CanonicalEquals(*built));
  EXPECT_EQ(parsed->CanonicalHash(), built->CanonicalHash());
}

// ---------------------------------------------------------------------------
// ResultCache unit behavior
// ---------------------------------------------------------------------------

// The payload a lookup shares, or nullptr on a miss: the same payload as a
// set handed to Insert means the cache returned that very set, uncopied.
const Region* Payload(const std::optional<RegionSet>& hit) {
  return hit.has_value() ? hit->regions().data() : nullptr;
}

ResultCache::Key KeyFor(const ExprPtr& e, uint64_t instance_id = 1,
                        uint64_t stamp = 0) {
  return ResultCache::Key{instance_id, stamp, e->CanonicalHash()};
}

TEST_F(CacheTest, InsertThenLookupHits) {
  ResultCache cache;
  ExprPtr e = Expr::Canonicalize(Expr::Union(Expr::Name("a"), Expr::Name("b")));
  RegionSet value = MakeSet({{1, 2}, {3, 4}});
  CacheQueryStats stats;
  EXPECT_TRUE(cache.Insert(KeyFor(e), e, value, &stats));
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_GT(cache.bytes(), 0);

  std::optional<RegionSet> hit = cache.Lookup(KeyFor(e), e, &stats);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value);
  EXPECT_EQ(stats.hits, 1);

  // The commuted form reaches the same entry: same canonical fingerprint.
  ExprPtr commuted =
      Expr::Canonicalize(Expr::Union(Expr::Name("b"), Expr::Name("a")));
  EXPECT_TRUE(cache.Lookup(KeyFor(commuted), commuted, &stats).has_value());
}

TEST_F(CacheTest, WrongEpochOrInstanceMisses) {
  ResultCache cache;
  ExprPtr e = Expr::Canonicalize(Expr::Intersect(Expr::Name("a"), Expr::Name("b")));
  RegionSet value = MakeSet({{1, 2}});
  ASSERT_TRUE(cache.Insert(KeyFor(e, /*instance_id=*/1, /*stamp=*/3), e, value));

  CacheQueryStats stats;
  // A newer stamp, then another catalog.
  EXPECT_FALSE(cache.Lookup(KeyFor(e, 1, 4), e, &stats).has_value());
  EXPECT_FALSE(cache.Lookup(KeyFor(e, 2, 3), e, &stats).has_value());
  EXPECT_EQ(stats.misses, 2);
  EXPECT_TRUE(cache.Lookup(KeyFor(e, 1, 3), e, &stats).has_value());
}

TEST_F(CacheTest, LruEvictionDropsLeastRecentlyUsed) {
  ExprPtr ea = Expr::Canonicalize(Expr::Union(Expr::Name("a"), Expr::Name("b")));
  ExprPtr eb =
      Expr::Canonicalize(Expr::Intersect(Expr::Name("a"), Expr::Name("b")));
  ExprPtr ec =
      Expr::Canonicalize(Expr::Difference(Expr::Name("a"), Expr::Name("b")));
  RegionSet va = MakeSet({{1, 2}});
  RegionSet vb = MakeSet({{3, 4}});
  RegionSet vc = MakeSet({{5, 6}});

  // One shard sized for exactly two of these entries.
  ResultCacheOptions options;
  options.shards = 1;
  options.max_bytes = ResultCache::EntryBytes(va) + ResultCache::EntryBytes(vb);
  ResultCache cache(options);

  CacheQueryStats stats;
  ASSERT_TRUE(cache.Insert(KeyFor(ea), ea, va, &stats));
  ASSERT_TRUE(cache.Insert(KeyFor(eb), eb, vb, &stats));
  EXPECT_EQ(cache.entries(), 2);

  // Touch A so B becomes least recently used, then force an eviction.
  ASSERT_TRUE(cache.Lookup(KeyFor(ea), ea, &stats).has_value());
  ASSERT_TRUE(cache.Insert(KeyFor(ec), ec, vc, &stats));
  EXPECT_GE(stats.evictions, 1);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_TRUE(cache.Lookup(KeyFor(ea), ea, &stats).has_value());  // survived
  EXPECT_FALSE(cache.Lookup(KeyFor(eb), eb, &stats).has_value());  // evicted
  EXPECT_TRUE(cache.Lookup(KeyFor(ec), ec, &stats).has_value());
  EXPECT_LE(cache.bytes(), options.max_bytes);
}

TEST_F(CacheTest, OversizedEntryIsRejected) {
  ResultCacheOptions options;
  options.shards = 1;
  options.max_bytes = 64;  // Smaller than any entry's fixed overhead.
  ResultCache cache(options);
  ExprPtr e = Expr::Canonicalize(Expr::Union(Expr::Name("a"), Expr::Name("b")));
  RegionSet value = MakeSet({{1, 2}});
  CacheQueryStats stats;
  EXPECT_FALSE(cache.Insert(KeyFor(e), e, value, &stats));
  EXPECT_EQ(stats.insert_failures, 1);
  EXPECT_EQ(cache.entries(), 0);
}

TEST_F(CacheTest, EvictionPressureFailpointAbandonsInsert) {
  ExprPtr ea = Expr::Canonicalize(Expr::Union(Expr::Name("a"), Expr::Name("b")));
  ExprPtr eb =
      Expr::Canonicalize(Expr::Intersect(Expr::Name("a"), Expr::Name("b")));
  RegionSet va = MakeSet({{1, 2}});
  RegionSet vb = MakeSet({{3, 4}});

  ResultCacheOptions options;
  options.shards = 1;
  options.max_bytes = ResultCache::EntryBytes(va);
  ResultCache cache(options);
  ASSERT_TRUE(cache.Insert(KeyFor(ea), ea, va));

  FailpointRegistry::Default().Arm("cache.evict.pressure");
  CacheQueryStats stats;
  EXPECT_FALSE(cache.Insert(KeyFor(eb), eb, vb, &stats));
  EXPECT_EQ(stats.insert_failures, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_GT(FailpointRegistry::Default().FireCount("cache.evict.pressure"), 0);
  // The incumbent entry survives intact.
  EXPECT_TRUE(cache.Lookup(KeyFor(ea), ea, &stats).has_value());

  // With the failpoint disarmed the same insert evicts normally.
  FailpointRegistry::Default().DisarmAll();
  EXPECT_TRUE(cache.Insert(KeyFor(eb), eb, vb, &stats));
  EXPECT_FALSE(cache.Lookup(KeyFor(ea), ea, &stats).has_value());
}

TEST_F(CacheTest, ClearDropsEverything) {
  ResultCache cache;
  ExprPtr e = Expr::Canonicalize(Expr::Union(Expr::Name("a"), Expr::Name("b")));
  RegionSet value = MakeSet({{1, 2}});
  ASSERT_TRUE(cache.Insert(KeyFor(e), e, value));
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_FALSE(cache.Lookup(KeyFor(e), e).has_value());
}

int64_t SupersededTotal() {
  return obs::Registry::Default()
      .GetCounter("regal_cache_superseded_total")
      ->value();
}

TEST_F(CacheTest, NewerStampSupersedesTheOlderEntry) {
  ResultCache cache;
  ExprPtr e = Expr::Canonicalize(Expr::Union(Expr::Name("a"), Expr::Name("b")));
  RegionSet old_value = MakeSet({{1, 2}});
  RegionSet new_value = MakeSet({{1, 2}, {5, 6}, {7, 8}});
  ASSERT_TRUE(cache.Insert(KeyFor(e, 1, /*stamp=*/3), e, old_value));
  // Another instance's entry for the same expression is not superseded.
  ASSERT_TRUE(cache.Insert(KeyFor(e, 2, /*stamp=*/1), e, old_value));
  const int64_t superseded = SupersededTotal();

  CacheQueryStats stats;
  ASSERT_TRUE(cache.Insert(KeyFor(e, 1, /*stamp=*/5), e, new_value, &stats));
  EXPECT_EQ(SupersededTotal(), superseded + 1);
  EXPECT_EQ(stats.evictions, 0);  // Superseding is not pressure.
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.bytes(), ResultCache::EntryBytes(new_value) +
                               ResultCache::EntryBytes(old_value));
  EXPECT_FALSE(cache.Lookup(KeyFor(e, 1, 3), e).has_value());
  EXPECT_EQ(Payload(cache.Lookup(KeyFor(e, 1, 5), e)),
            new_value.regions().data());
  EXPECT_EQ(Payload(cache.Lookup(KeyFor(e, 2, 1), e)),
            old_value.regions().data());
}

TEST_F(CacheTest, InsertOlderThanItsIncumbentIsAbandoned) {
  ResultCache cache;
  ExprPtr e =
      Expr::Canonicalize(Expr::Intersect(Expr::Name("a"), Expr::Name("b")));
  RegionSet newer = MakeSet({{3, 4}});
  RegionSet older = MakeSet({{1, 2}});
  ASSERT_TRUE(cache.Insert(KeyFor(e, 1, /*stamp=*/7), e, newer));
  const int64_t superseded = SupersededTotal();

  CacheQueryStats stats;
  EXPECT_FALSE(cache.Insert(KeyFor(e, 1, /*stamp=*/6), e, older, &stats));
  EXPECT_EQ(SupersededTotal(), superseded + 1);
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.insert_failures, 0);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(Payload(cache.Lookup(KeyFor(e, 1, 7), e)), newer.regions().data());
  EXPECT_FALSE(cache.Lookup(KeyFor(e, 1, 6), e).has_value());
}

// The budget charges what the cache pins. After a random workload that
// evicts, bytes() is the sum over the resident entries of each payload's
// allocated regions plus the fixed per-entry overhead (the charge of an
// empty set, which has no payload).
TEST_F(CacheTest, BytesChargeTheResidentPayloads) {
  Rng rng(5);
  RandomInstanceOptions instance_options;
  instance_options.num_regions = 600;
  instance_options.max_names = 4;
  const Instance instance = RandomLaminarInstance(rng, instance_options);
  ResultCacheOptions options;
  options.shards = 4;
  options.max_bytes = 16 << 10;
  ResultCache cache(options);
  CacheQueryStats stats;
  EvalOptions eval_options;
  eval_options.result_cache = &cache;
  eval_options.cache_stats = &stats;
  static const char* kOps[] = {"|", "&", "-", "including", "within",
                               "before", "after"};
  auto name = [&] { return StrCat({"R", std::to_string(rng.Below(4))}); };
  auto op = [&] { return std::string(kOps[rng.Below(7)]); };
  std::vector<ExprPtr> subtrees;
  for (int q = 0; q < 300; ++q) {
    const std::string query = StrCat({"(", name(), " ", op(), " ", name(),
                                      ") ", op(), " ", name()});
    const ExprPtr e = *ParseQuery(query);
    ASSERT_TRUE(Evaluator(&instance, eval_options).Evaluate(e).ok()) << query;
    subtrees.push_back(e);
    subtrees.push_back(e->child(0));
  }
  EXPECT_GT(stats.evictions, 0);
  CacheKeyer keyer(&instance);
  const int64_t overhead = ResultCache::EntryBytes(RegionSet());
  std::set<uint64_t> seen;
  int64_t resident = 0;
  int64_t pinned = 0;
  for (const ExprPtr& e : subtrees) {
    const ResultCache::Key key = keyer.Key(e);
    if (!seen.insert(key.fingerprint).second) continue;
    std::optional<RegionSet> hit = cache.Lookup(key, keyer.Canonical(e));
    if (!hit.has_value()) continue;
    ++resident;
    EXPECT_EQ(hit->regions().capacity(), hit->size()) << e->ToString();
    pinned += static_cast<int64_t>(hit->regions().capacity() *
                                   sizeof(Region)) +
              overhead;
  }
  EXPECT_GT(resident, 0);
  EXPECT_EQ(resident, cache.entries());
  EXPECT_EQ(cache.bytes(), pinned);
  EXPECT_LE(cache.bytes(), options.max_bytes);
}

// ---------------------------------------------------------------------------
// Evaluator integration: seeding, publication, stamp invalidation
// ---------------------------------------------------------------------------

TEST_F(CacheTest, WarmEvaluationSkipsOperatorWork) {
  Instance instance = SmallInstance();
  ResultCache cache;
  ExprPtr e = *ParseQuery("(a & b) | (a & c)");

  EvalOptions options;
  options.result_cache = &cache;
  CacheQueryStats cold_stats;
  options.cache_stats = &cold_stats;
  Evaluator cold(&instance, options);
  auto expected = cold.Evaluate(e);
  ASSERT_TRUE(expected.ok());
  EXPECT_GT(cold_stats.inserts, 0);
  EXPECT_EQ(cold_stats.hits, 0);
  EXPECT_GT(cold.stats().operator_evals, 0);

  CacheQueryStats warm_stats;
  options.cache_stats = &warm_stats;
  Evaluator warm(&instance, options);
  auto again = warm.Evaluate(e);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *expected);
  EXPECT_EQ(warm_stats.hits, 1);  // Root hit short-circuits the whole tree.
  EXPECT_EQ(warm.stats().operator_evals, 0);
}

TEST_F(CacheTest, CommutedQueryHitsTheCache) {
  Instance instance = SmallInstance();
  ResultCache cache;
  EvalOptions options;
  options.result_cache = &cache;

  Evaluator first(&instance, options);
  auto expected = first.Evaluate(*ParseQuery("(a & b) | (a & c)"));
  ASSERT_TRUE(expected.ok());

  // Same query modulo commutativity and associativity of | and &.
  CacheQueryStats stats;
  options.cache_stats = &stats;
  Evaluator second(&instance, options);
  auto commuted = second.Evaluate(*ParseQuery("(c & a) | (b & a)"));
  ASSERT_TRUE(commuted.ok());
  EXPECT_EQ(*commuted, *expected);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(second.stats().operator_evals, 0);
}

TEST_F(CacheTest, MutationInvalidatesByEpochBump) {
  Instance instance = SmallInstance();
  ResultCache cache;
  ExprPtr e = *ParseQuery("a & b");

  EvalOptions options;
  options.result_cache = &cache;
  Evaluator cold(&instance, options);
  auto before = cold.Evaluate(e);
  ASSERT_TRUE(before.ok());
  EXPECT_GT(cache.entries(), 0);

  // Rebinding `a` bumps the epoch; the cached intersection must not be
  // served against the new data.
  const uint64_t old_epoch = instance.epoch();
  instance.SetRegionSet("a", MakeSet({{60, 69}}));
  EXPECT_GT(instance.epoch(), old_epoch);

  CacheQueryStats stats;
  options.cache_stats = &stats;
  Evaluator fresh(&instance, options);
  auto after = fresh.Evaluate(e);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(stats.hits, 0);
  EXPECT_GT(fresh.stats().operator_evals, 0);
  // {60,69} intersects b's {60,69}, not the old a's regions.
  EXPECT_EQ(after->size(), 1u);
  EXPECT_NE(*after, *before);
}

// Whether the root of `query` is resident, by the evaluator's own key.
bool RootResident(ResultCache& cache, const Instance& instance,
                  const std::string& query) {
  ExprPtr e = *ParseQuery(query);
  CacheKeyer keyer(&instance);
  return cache.Lookup(keyer.Key(e), keyer.Canonical(e)).has_value();
}

TEST_F(CacheTest, WriteInvalidatesOnlyTheAnswersThatReadIt) {
  Instance instance = SmallInstance();
  instance.SetRegionSet("d", MakeSet({{100, 109}}));
  instance.SetSyntheticPattern(*Pattern::Parse("x"), MakeSet({{0, 9}}));
  ResultCache cache;
  const std::vector<std::string> queries = {"a & b", "a matching \"x\"",
                                            "c dwithin a", "a - c"};
  auto warm = [&] {
    EvalOptions options;
    options.result_cache = &cache;
    for (const std::string& q : queries) {
      Evaluator evaluator(&instance, options);
      ASSERT_TRUE(evaluator.Evaluate(*ParseQuery(q)).ok()) << q;
    }
  };
  warm();

  // `d` is read by none of them, but the region tree holds it.
  instance.SetRegionSet("d", MakeSet({{110, 119}}));
  EXPECT_TRUE(RootResident(cache, instance, "a & b"));
  EXPECT_TRUE(RootResident(cache, instance, "a matching \"x\""));
  EXPECT_FALSE(RootResident(cache, instance, "c dwithin a"));
  EXPECT_TRUE(RootResident(cache, instance, "a - c"));
  warm();

  // W changes σ's answers only.
  instance.SetSyntheticPattern(*Pattern::Parse("x"), MakeSet({{20, 29}}));
  EXPECT_TRUE(RootResident(cache, instance, "a & b"));
  EXPECT_FALSE(RootResident(cache, instance, "a matching \"x\""));
  EXPECT_TRUE(RootResident(cache, instance, "a - c"));
  warm();

  // A write to `c` reaches exactly the answers that read `c`.
  instance.SetRegionSet("c", MakeSet({{40, 49}}));
  EXPECT_TRUE(RootResident(cache, instance, "a & b"));
  EXPECT_TRUE(RootResident(cache, instance, "a matching \"x\""));
  EXPECT_FALSE(RootResident(cache, instance, "c dwithin a"));
  EXPECT_FALSE(RootResident(cache, instance, "a - c"));
  warm();
  // Each expression keeps one entry: the writes superseded the rest.
  EXPECT_EQ(cache.entries(), static_cast<int64_t>(queries.size()));
}

TEST_F(CacheTest, CloneCarriesItsStampsPastTheSourceEpoch) {
  Instance instance = SmallInstance();
  ResultCache cache;
  EvalOptions options;
  options.result_cache = &cache;
  Instance copy = instance.Clone();
  EXPECT_NE(copy.id(), instance.id());
  EXPECT_EQ(copy.epoch(), instance.epoch());
  EXPECT_EQ(copy.NameStamp("c"), instance.NameStamp("c"));

  Evaluator first(&copy, options);
  ASSERT_TRUE(first.Evaluate(*ParseQuery("a | c")).ok());
  // `a` was set before `c`; a write to it must still outrank c's stamp.
  copy.SetRegionSet("a", MakeSet({{60, 69}}));
  EXPECT_GT(copy.NameStamp("a"), instance.NameStamp("c"));
  EXPECT_FALSE(RootResident(cache, copy, "a | c"));
  CacheQueryStats stats;
  options.cache_stats = &stats;
  Evaluator second(&copy, options);
  auto after = second.Evaluate(*ParseQuery("a | c"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, MakeSet({{20, 29}, {60, 69}}));
  EXPECT_EQ(stats.hits, 0);
}

TEST_F(CacheTest, NaiveOracleStaysPure) {
  Instance instance = SmallInstance();
  ResultCache cache;
  EvalOptions options;
  options.result_cache = &cache;
  options.use_naive = true;
  CacheQueryStats stats;
  options.cache_stats = &stats;
  Evaluator naive(&instance, options);
  ASSERT_TRUE(naive.Evaluate(*ParseQuery("a & b")).ok());
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0);
}

// ---------------------------------------------------------------------------
// Engine integration: envelope, governance, cancellation
// ---------------------------------------------------------------------------

Result<QueryEngine> DictionaryEngine(int entries = 30) {
  DictionaryGeneratorOptions options;
  options.entries = entries;
  return QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
}

TEST_F(CacheTest, EngineRepeatQueryHitsAndReportsEnvelope) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  const std::string query = "sense within entry within dictionary";

  auto cold = engine->Run("explain analyze " + query);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->profile.has_value());
  EXPECT_TRUE(cold->profile->cache_enabled);
  EXPECT_EQ(cold->profile->cache.hits, 0);
  EXPECT_GT(cold->profile->cache.inserts, 0);
  EXPECT_GT(cold->profile->cache_bytes, 0);

  auto warm = engine->Run("explain analyze " + query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->regions, cold->regions);
  ASSERT_TRUE(warm->profile.has_value());
  EXPECT_GT(warm->profile->cache.hits, 0);
  EXPECT_EQ(warm->profile->cache.inserts, 0);

  // The machine-readable profile carries the cache envelope.
  std::string json = warm->profile->Json();
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"evictions\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\""), std::string::npos);
}

TEST_F(CacheTest, EngineCommutedQueryTextHits) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  auto first = engine->Run("(quote within sense) | (def within sense)",
                           /*optimize=*/false);
  ASSERT_TRUE(first.ok());
  auto second = engine->Run("explain analyze (def within sense) | "
                            "(quote within sense)",
                            /*optimize=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->regions, first->regions);
  ASSERT_TRUE(second->profile.has_value());
  EXPECT_GT(second->profile->cache.hits, 0);
  EXPECT_EQ(second->eval_stats.operator_evals, 0);
}

// Prepare and Execute are Run's two halves; the brownout probe reads the
// prepared query instead of running the front half a second time.
TEST_F(CacheTest, PreparedQueryProbesResidencyAndExecutesLikeRun) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  const QueryLimits none;
  // The optimizer rewrites the duplicated operand, so the prepared plan
  // and its rewrites are worth comparing with Run's.
  const std::string query = "(sense | sense) within entry";

  // A bare name scan is borrowed from the index: resident even cold. Each
  // PreparedQuery holds the catalog read lock, so one lives at a time.
  {
    auto scan = engine->Prepare("sense", none);
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_TRUE(engine->IsCacheResident(*scan));
  }
  {
    auto cold = engine->Prepare(query, none);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_FALSE(engine->IsCacheResident(*cold));
  }
  auto ran = engine->Run(query);
  ASSERT_TRUE(ran.ok()) << ran.status();
  ASSERT_GT(ran->rewrite_rules_applied, 0);
  {
    auto warm = engine->Prepare(query, none);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_TRUE(engine->IsCacheResident(*warm));
    auto executed = engine->Execute(*warm);
    ASSERT_TRUE(executed.ok()) << executed.status();
    EXPECT_EQ(executed->regions, ran->regions);
    EXPECT_EQ(executed->executed->ToString(), ran->executed->ToString());
    EXPECT_EQ(executed->rewrite_rules_applied, ran->rewrite_rules_applied);
    ASSERT_EQ(executed->rewrites.size(), ran->rewrites.size());
    for (size_t i = 0; i < ran->rewrites.size(); ++i) {
      EXPECT_EQ(executed->rewrites[i].ToString(), ran->rewrites[i].ToString());
    }
  }
  // explain statements always run machinery: never resident, even warm.
  for (const std::string verb : {"explain ", "explain analyze "}) {
    auto explained = engine->Prepare(verb + query, none);
    ASSERT_TRUE(explained.ok()) << explained.status();
    EXPECT_FALSE(engine->IsCacheResident(*explained));
  }
}

TEST_F(CacheTest, DisablingTheCacheStopsSeedingAndPublication) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  engine->set_result_cache_enabled(false);
  auto first = engine->Run("sense within entry");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine->result_cache().entries(), 0);
  auto second = engine->Run("explain analyze sense within entry");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->profile.has_value());
  EXPECT_FALSE(second->profile->cache_enabled);
  EXPECT_EQ(second->profile->cache.hits, 0);
  EXPECT_GT(second->eval_stats.operator_evals, 0);
}

TEST_F(CacheTest, CacheHitsChargeTheMemoryBudget) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  const std::string query = "sense within entry";
  ASSERT_TRUE(engine->Run(query).ok());  // Warm the cache.

  // A generous budget passes, and the profile shows the seeded bytes.
  QueryLimits roomy;
  roomy.memory_limit_bytes = int64_t{1} << 30;
  auto ok = engine->Run("explain analyze " + query, roomy);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok->profile.has_value());
  EXPECT_GT(ok->profile->cache.hits, 0);
  EXPECT_GT(ok->profile->peak_memory_bytes, 0);

  // A tiny budget fails even though the answer is cached: seeded sets are
  // charged exactly like computed ones.
  QueryLimits tiny;
  tiny.memory_limit_bytes = 8;
  auto exhausted = engine->Run(query, tiny);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CacheTest, CancelledQueryPublishesNothing) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();  // Cancelled before the first operator runs.
  auto answer = engine->Run("sense within entry", limits);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine->result_cache().entries(), 0);
}

TEST_F(CacheTest, ReloadSnapshotClearsTheResultCache) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  const std::string path = testing::TempDir() + "/cache_reload.regal2";
  ASSERT_TRUE(engine->SaveSnapshot(path).ok());
  const std::string query = "sense within entry";
  auto before = engine->Run(query);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(engine->result_cache().bytes(), 0);

  ASSERT_TRUE(engine->ReloadSnapshot(path).ok());
  EXPECT_EQ(engine->result_cache().bytes(), 0);
  EXPECT_EQ(engine->result_cache().entries(), 0);
  auto after = engine->Run("explain analyze " + query);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->regions, before->regions);
  ASSERT_TRUE(after->profile.has_value());
  EXPECT_EQ(after->profile->cache.hits, 0);
  EXPECT_GT(after->profile->cache.inserts, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: one cache shared by parallel readers and writers
// ---------------------------------------------------------------------------

TEST_F(CacheTest, ConcurrentEvaluatorsShareOneCache) {
  Instance instance = SmallInstance();
  ResultCache cache;
  // Commuted spellings of the same two queries: every thread both publishes
  // and consumes entries, and all spellings collapse to two fingerprints.
  const char* queries[] = {
      "(a & b) | (a & c)",
      "(c & a) | (b & a)",
      "(a - b) within (a | b | c)",
      "(a - b) within (c | a | b)",
  };
  RegionSet expected[4];
  {
    Evaluator reference(&instance);
    for (int i = 0; i < 4; ++i) {
      auto r = reference.Evaluate(*ParseQuery(queries[i]));
      ASSERT_TRUE(r.ok()) << queries[i];
      expected[i] = *std::move(r);
    }
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        int q = (t + i) % 4;
        EvalOptions options;
        options.result_cache = &cache;
        Evaluator eval(&instance, options);
        auto result = eval.Evaluate(*ParseQuery(queries[q]));
        if (!result.ok() || *result != expected[q]) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Only the distinct canonical subtrees were published (roots collapse
  // across spellings; inner nodes like `a | b` vs `c | a` stay distinct).
  EXPECT_LE(cache.entries(), 8);
  CacheQueryStats stats;
  ExprPtr query = *ParseQuery("(a & b) | (a & c)");
  CacheKeyer keyer(&instance);
  EXPECT_TRUE(
      cache.Lookup(keyer.Key(query), keyer.Canonical(query), &stats)
          .has_value());
}

}  // namespace
}  // namespace regal
