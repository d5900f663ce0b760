// Stale-hit oracle for the cross-query result cache (ctest label `cache`).
//
// Random expressions (σ, `word`, ⊃_d, ⊂_d, BI and span/window views among
// them) are read over random laminar instances, interleaved with every
// kind of catalog write: ReplaceRegions, DefineRegions of a new name,
// BindText, SetSyntheticPattern, Clone and ReloadSnapshot. Each answer of
// an engine with the cache on and the optimizer running is compared with
// a cache-off, unoptimized twin that received the same writes.
//
// A model of what each cached subtree reads predicts, independently of the
// engine's stamps, whether the root of every read is resident: a write to
// a name the root does not read keeps it a hit; a write to a name it reads,
// a text or pattern rebind under σ/`word`, or any write under ⊃_d/⊂_d
// makes it a miss. The cache must also hold at most one entry per
// canonical form, because a newer insert supersedes an older one.
//
// Built into the cache suite's binary, so the TSAN and ASAN runs of
// `ctest -L cache` cover it.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/eval.h"
#include "core/expr.h"
#include "core/instance.h"
#include "doc/synthetic.h"
#include "query/engine.h"
#include "util/random.h"

namespace regal {
namespace {

const std::vector<Pattern>& Patterns() {
  static const std::vector<Pattern> patterns{
      *Pattern::Parse("ab*"), *Pattern::Parse("*b"), *Pattern::Parse("abc"),
      *Pattern::Parse("AB", /*case_insensitive=*/true), *Pattern::Parse("?a")};
  return patterns;
}

// Mixed-case words, so exact, prefix, suffix and case-insensitive patterns
// all match something and differ from each other.
std::string RandomText(Rng& rng, Offset min_size) {
  static const char* kWords[] = {"ab", "abc", "b", "ca", "AB", "bca", "xa"};
  std::string text;
  while (static_cast<Offset>(text.size()) < min_size) {
    if (!text.empty()) text += rng.Chance(0.2) ? "  " : " ";
    text += kWords[rng.Below(7)];
  }
  return text;
}

bool Reads(const Expr& e, OpKind kind) {
  if (e.kind() == kind) return true;
  for (const ExprPtr& c : e.children()) {
    if (Reads(*c, kind)) return true;
  }
  return false;
}

bool ReadsContent(const Expr& e) {
  return Reads(e, OpKind::kSelect) || Reads(e, OpKind::kWordMatch);
}

bool ReadsTree(const Expr& e) {
  return Reads(e, OpKind::kDirectIncluding) ||
         Reads(e, OpKind::kDirectIncluded);
}

void CollectSubtrees(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() != OpKind::kName) out->push_back(e);
  for (const ExprPtr& c : e->children()) CollectSubtrees(c, out);
}

// A random expression over `names` with about `ops` operators.
ExprPtr RandomExpr(Rng& rng, int ops, const std::vector<std::string>& names) {
  const std::vector<Pattern>& patterns = Patterns();
  if (ops <= 0) {
    if (rng.Chance(0.1)) {
      return Expr::WordMatch(patterns[rng.Below(patterns.size())]);
    }
    return Expr::Name(names[rng.Below(names.size())]);
  }
  const uint64_t pick = rng.Below(20);
  if (pick < 3) {
    return Expr::Select(patterns[rng.Below(patterns.size())],
                        RandomExpr(rng, ops - 1, names));
  }
  if (pick < 5 && ops >= 2) {
    const int left = static_cast<int>(rng.Below(static_cast<uint64_t>(ops)));
    const int middle =
        static_cast<int>(rng.Below(static_cast<uint64_t>(ops - left)));
    return Expr::BothIncluded(RandomExpr(rng, left, names),
                              RandomExpr(rng, middle, names),
                              RandomExpr(rng, ops - 2 - left - middle, names));
  }
  static const OpKind kOps[] = {
      OpKind::kUnion,    OpKind::kIntersect,       OpKind::kDifference,
      OpKind::kIncluding, OpKind::kIncluded,       OpKind::kPrecedes,
      OpKind::kFollows,  OpKind::kDirectIncluding, OpKind::kDirectIncluded};
  const OpKind op = kOps[rng.Below(9)];
  const int left = static_cast<int>(rng.Below(static_cast<uint64_t>(ops)));
  return Expr::Binary(op, RandomExpr(rng, left, names),
                      RandomExpr(rng, ops - 1 - left, names));
}

// What the engine's cache should hold, from the writes alone: each
// canonical subtree a read left resident, with the write counts of what it
// reads at that moment. It is resident at the same counts, and at no other.
class ResidencyModel {
 public:
  void Reset() {
    resident_.clear();
    views_.clear();
  }
  void WroteName(const std::string& name) {
    ++name_writes_[name];
    ++total_writes_;
  }
  void WroteContent() {
    ++content_writes_;
    ++total_writes_;
  }
  void DefinedView(const std::string& name) { views_.insert(name); }

  // Some of `executed`'s subtrees may or may not have been published (the
  // read failed part-way): they stay out of the predictions until a read
  // that succeeds records them again.
  void Record(const ExprPtr& executed, bool ok) {
    std::vector<ExprPtr> subtrees;
    CollectSubtrees(executed, &subtrees);
    for (const ExprPtr& s : subtrees) {
      ExprPtr canonical = Expr::Canonicalize(s);
      Entry& entry = resident_[canonical->ToString()];
      entry.known = ok;
      entry.version = Version(*canonical);
      entry.total_writes = total_writes_;
    }
  }

  enum class Prediction { kHit, kMissAfterWrite, kMissCold, kUnknown };

  Prediction Predict(const ExprPtr& root) const {
    if (root->kind() == OpKind::kName) return Prediction::kHit;
    ExprPtr canonical = Expr::Canonicalize(root);
    auto it = resident_.find(canonical->ToString());
    if (it == resident_.end()) return Prediction::kMissCold;
    if (!it->second.known) return Prediction::kUnknown;
    return it->second.version == Version(*canonical)
               ? Prediction::kHit
               : Prediction::kMissAfterWrite;
  }

  // True when some write landed since `root` was recorded (only meaningful
  // for a predicted hit: then every such write missed what it reads).
  bool WrittenSince(const ExprPtr& root) const {
    auto it = resident_.find(Expr::Canonicalize(root)->ToString());
    return it != resident_.end() && it->second.total_writes < total_writes_;
  }

  size_t canonical_forms() const { return resident_.size(); }

 private:
  struct Entry {
    bool known = false;
    std::vector<int64_t> version;
    int64_t total_writes = 0;
  };

  std::vector<int64_t> Version(const Expr& canonical) const {
    std::vector<int64_t> version;
    for (const std::string& name : canonical.NamesUsed()) {
      if (views_.count(name) > 0) continue;  // Define-once.
      auto it = name_writes_.find(name);
      version.push_back(it == name_writes_.end() ? 0 : it->second);
    }
    if (ReadsContent(canonical)) version.push_back(content_writes_);
    if (ReadsTree(canonical)) version.push_back(total_writes_);
    return version;
  }

  std::map<std::string, int64_t> name_writes_;
  int64_t content_writes_ = 0;
  int64_t total_writes_ = 0;
  std::set<std::string> views_;
  std::map<std::string, Entry> resident_;
};

struct OracleTally {
  int reads = 0;
  int hits_across_writes = 0;  // Predicted hits with a write since.
  int misses_after_writes = 0;
  int clones = 0;
  int reloads = 0;
  int views = 0;
};

class CacheOracle {
 public:
  explicit CacheOracle(uint64_t seed) : rng_(seed), seed_(seed) {
    RandomInstanceOptions options;
    options.num_regions = 36;
    options.max_depth = 5;
    options.max_names = 1;
    universe_ = RandomLaminarInstance(rng_, options).AllRegions();
    text_size_ = 2 * options.num_regions + 8;
    Instance instance;
    for (int i = 0; i < 4; ++i) names_.push_back("R" + std::to_string(i));
    owner_.assign(universe_.size(), -1);
    for (size_t r = 0; r < universe_.size(); ++r) {
      if (rng_.Chance(0.85)) {
        owner_[r] = static_cast<int>(rng_.Below(names_.size()));
      }
    }
    for (size_t n = 0; n < names_.size(); ++n) {
      instance.SetRegionSet(names_[n], Owned(static_cast<int>(n)));
    }
    if (seed % 2 == 1) {
      instance.BindText(std::make_shared<Text>(RandomText(rng_, text_size_)));
    } else {
      for (const Pattern& p : Patterns()) {
        instance.SetSyntheticPattern(p, RandomSubset(universe_, 0.4));
      }
    }
    Install(std::move(instance));
    for (int q = 0; q < 14; ++q) NewQuery();
  }

  void Step() {
    const uint64_t pick = rng_.Below(100);
    if (pick < 60) {
      Read(RandomQuery());
    } else if (pick < 74) {
      ReplaceRegions();
    } else if (pick < 78) {
      DefineRegions();
    } else if (pick < 82) {
      RebindText();
    } else if (pick < 86) {
      SetPattern();
    } else if (pick < 90) {
      NewQuery();
    } else if (pick < 96) {
      DefineView();
    } else if (pick < 98) {
      CloneBoth();
    } else {
      Reload();
    }
  }

  const OracleTally& tally() const { return tally_; }

 private:
  std::string Context() const {
    return "seed " + std::to_string(seed_) + ", read " +
           std::to_string(tally_.reads);
  }

  RegionSet Owned(int name) const {
    std::vector<Region> regions;
    for (size_t r = 0; r < universe_.size(); ++r) {
      if (owner_[r] == name) regions.push_back(universe_[r]);
    }
    return RegionSet::FromSortedUnique(std::move(regions));
  }

  RegionSet RandomSubset(const RegionSet& from, double p) {
    std::vector<Region> regions;
    for (const Region& r : from) {
      if (rng_.Chance(p)) regions.push_back(r);
    }
    return RegionSet::FromSortedUnique(std::move(regions));
  }

  // Both engines start from copies of one instance; only `sut_` caches and
  // optimizes. Views die with their engine, and so do the queries that
  // read them.
  void Install(Instance instance) {
    reference_ = std::make_unique<QueryEngine>(instance.Clone());
    reference_->set_result_cache_enabled(false);
    reference_->set_telemetry_enabled(false);
    sut_ = std::make_unique<QueryEngine>(std::move(instance));
    sut_->set_telemetry_enabled(false);
    ForgetCacheAndViews();
  }

  void ForgetCacheAndViews() {
    model_.Reset();
    views_.clear();
    view_queries_.clear();
  }

  const std::string& RandomQuery() {
    const size_t pick = rng_.Below(queries_.size() + view_queries_.size());
    return pick < queries_.size() ? queries_[pick]
                                  : view_queries_[pick - queries_.size()];
  }

  void NewQuery() {
    queries_.push_back(
        RandomExpr(rng_, static_cast<int>(1 + rng_.Below(4)), names_)
            ->ToString());
  }

  void NewViewQuery() {
    std::vector<std::string> names = names_;
    names.insert(names.end(), views_.begin(), views_.end());
    view_queries_.push_back(
        RandomExpr(rng_, static_cast<int>(1 + rng_.Below(3)), names)
            ->ToString());
  }

  void Read(const std::string& query) {
    ++tally_.reads;
    SCOPED_TRACE(Context() + ": " + query);
    Result<QueryAnswer> expected = reference_->Run(query, /*optimize=*/false);
    bool resident = false;
    Result<QueryAnswer> actual = Status::Internal("unset");
    {
      Result<PreparedQuery> prepared = sut_->Prepare(query, {});
      if (!prepared.ok()) {
        actual = prepared.status();
      } else {
        resident = sut_->IsCacheResident(*prepared);
        actual = sut_->Execute(*prepared);
      }
    }
    ASSERT_EQ(actual.ok(), expected.ok())
        << "cached: " << actual.status() << " reference: " << expected.status();
    if (!actual.ok()) {
      EXPECT_EQ(actual.status().code(), expected.status().code());
      // A read that fails in evaluation may have published some subtrees.
      if (actual.status().code() == StatusCode::kFailedPrecondition) {
        Result<QueryAnswer> plan = sut_->Run("explain " + query);
        ASSERT_TRUE(plan.ok()) << plan.status();
        model_.Record(plan->executed, /*ok=*/false);
      }
      return;
    }
    EXPECT_EQ(actual->regions, expected->regions)
        << "executed as " << actual->executed->ToString();
    const ExprPtr& root = actual->executed;
    switch (model_.Predict(root)) {
      case ResidencyModel::Prediction::kHit:
        EXPECT_TRUE(resident) << "lost a valid answer: " << root->ToString();
        if (root->kind() != OpKind::kName && model_.WrittenSince(root)) {
          ++tally_.hits_across_writes;
        }
        break;
      case ResidencyModel::Prediction::kMissAfterWrite:
        EXPECT_FALSE(resident) << "stale hit: " << root->ToString();
        ++tally_.misses_after_writes;
        break;
      case ResidencyModel::Prediction::kMissCold:
        EXPECT_FALSE(resident) << "hit never computed: " << root->ToString();
        break;
      case ResidencyModel::Prediction::kUnknown:
        break;
    }
    model_.Record(root, /*ok=*/true);
    // One entry per canonical form: a newer insert drops the older one.
    EXPECT_LE(sut_->result_cache().entries(),
              static_cast<int64_t>(model_.canonical_forms()));
  }

  void ReplaceRegions() {
    const int name = static_cast<int>(rng_.Below(names_.size()));
    for (size_t r = 0; r < universe_.size(); ++r) {
      if ((owner_[r] == name || owner_[r] == -1) && rng_.Chance(0.5)) {
        owner_[r] = owner_[r] == name ? -1 : name;
      }
    }
    RegionSet regions = Owned(name);
    ASSERT_TRUE(sut_->ReplaceRegions(names_[name], regions).ok());
    ASSERT_TRUE(reference_->ReplaceRegions(names_[name], regions).ok());
    model_.WroteName(names_[name]);
  }

  void DefineRegions() {
    const int name = static_cast<int>(names_.size());
    names_.push_back("D" + std::to_string(name));
    for (size_t r = 0; r < universe_.size(); ++r) {
      if (owner_[r] == -1 && rng_.Chance(0.6)) owner_[r] = name;
    }
    RegionSet regions = Owned(name);
    ASSERT_TRUE(sut_->DefineRegions(names_[name], regions).ok());
    ASSERT_TRUE(reference_->DefineRegions(names_[name], regions).ok());
    model_.WroteName(names_[name]);
  }

  void RebindText() {
    const std::string text = RandomText(rng_, text_size_);
    ASSERT_TRUE(sut_->BindText(text).ok());
    ASSERT_TRUE(reference_->BindText(text).ok());
    model_.WroteContent();
  }

  void SetPattern() {
    const Pattern& p = Patterns()[rng_.Below(Patterns().size())];
    RegionSet regions = RandomSubset(universe_, 0.4);
    ASSERT_TRUE(sut_->SetSyntheticPattern(p, regions).ok());
    ASSERT_TRUE(reference_->SetSyntheticPattern(p, regions).ok());
    model_.WroteContent();
  }

  void DefineView() {
    const std::string name = "V" + std::to_string(next_view_++);
    Status defined, twin;
    if (rng_.Chance(0.5)) {
      const std::string starts =
          RandomExpr(rng_, static_cast<int>(rng_.Below(2)), names_)
              ->ToString();
      const std::string ends =
          RandomExpr(rng_, static_cast<int>(rng_.Below(2)), names_)
              ->ToString();
      // Read both through the oracle first, so that the model knows what
      // the view's own runs find resident.
      Read(starts);
      Read(ends);
      defined = sut_->DefineSpanView(name, starts, ends);
      twin = reference_->DefineSpanView(name, starts, ends);
    } else {
      const Pattern& p = Patterns()[rng_.Below(Patterns().size())];
      const Offset before = static_cast<Offset>(rng_.Below(4));
      const Offset after = static_cast<Offset>(rng_.Below(4));
      defined = sut_->DefineWindowView(name, p, before, after);
      twin = reference_->DefineWindowView(name, p, before, after);
    }
    ASSERT_EQ(defined.ok(), twin.ok()) << defined << " vs " << twin;
    if (!defined.ok()) return;
    ++tally_.views;
    views_.push_back(name);
    model_.DefinedView(name);
    NewViewQuery();
    NewViewQuery();
  }

  // Clone() copies the catalog under a fresh instance id; the copies then
  // take writes of their own.
  void CloneBoth() {
    ++tally_.clones;
    Install(sut_->instance().Clone());
  }

  void Reload() {
    ++tally_.reloads;
    const std::string path = testing::TempDir() + "/cache_oracle_" +
                             std::to_string(seed_) + ".regal2";
    ASSERT_TRUE(sut_->SaveSnapshot(path).ok());
    ASSERT_TRUE(sut_->ReloadSnapshot(path).ok());
    ASSERT_TRUE(reference_->ReloadSnapshot(path).ok());
    // Every entry was keyed to the replaced instance.
    EXPECT_EQ(sut_->result_cache().bytes(), 0);
    EXPECT_EQ(sut_->result_cache().entries(), 0);
    ForgetCacheAndViews();
  }

  Rng rng_;
  uint64_t seed_;
  RegionSet universe_;
  std::vector<int> owner_;  // Name index owning each universe region, or -1.
  Offset text_size_ = 0;
  std::vector<std::string> names_;
  std::vector<std::string> views_;
  int next_view_ = 0;
  std::vector<std::string> queries_;
  std::vector<std::string> view_queries_;  // Queries that read a view.
  std::unique_ptr<QueryEngine> sut_;
  std::unique_ptr<QueryEngine> reference_;
  ResidencyModel model_;
  OracleTally tally_;
};

class CacheOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheOracleTest, CachedAnswersMatchTheReferenceAcrossWrites) {
  CacheOracle oracle(GetParam());
  for (int step = 0; step < 400 && !HasFatalFailure(); ++step) {
    oracle.Step();
  }
  const OracleTally& tally = oracle.tally();
  // The run exercised both directions of the residency rule, and every
  // kind of catalog change.
  EXPECT_GT(tally.hits_across_writes, 0);
  EXPECT_GT(tally.misses_after_writes, 0);
  EXPECT_GT(tally.reads, 200);
  EXPECT_GT(tally.clones, 0);
  EXPECT_GT(tally.reloads, 0);
  EXPECT_GT(tally.views, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Readers and a writer share one engine. Each reader learns, under its
// prepared query's read lock, which of four catalog states it reads, and
// must get exactly that state's answer: a stale hit would hand it another
// state's. The writer toggles one name the queries read and one they do
// not (which ⊃_d still sees).
TEST(CacheOracleConcurrencyTest, ReadersBesideAWriterSeeTheirOwnState) {
  Rng rng(91);
  RandomInstanceOptions options;
  options.num_regions = 60;
  options.max_names = 4;
  Instance base = RandomLaminarInstance(rng, options);
  const RegionSet x_sets[2] = {*base.Get("R1").value(),
                               RegionSet::FromSortedUnique({})};
  const RegionSet u_sets[2] = {*base.Get("R3").value(),
                               RegionSet::FromSortedUnique({})};
  const std::vector<std::string> queries = {
      "R0 within R1",
      "(R0 | R2) - R1",
      "R0 & R2",
      "R2 including R0",
      "R0 dwithin R2",
      "bi(R0, R1, R2)",
      "(R0 before R2) | (R2 within R1)",
  };
  // answers[q][x][u]: the reference answer in each state.
  std::vector<RegionSet> answers[2][2];
  for (int x = 0; x < 2; ++x) {
    for (int u = 0; u < 2; ++u) {
      Instance state = base.Clone();
      state.SetRegionSet("R1", x_sets[x]);
      state.SetRegionSet("R3", u_sets[u]);
      QueryEngine reference(std::move(state));
      reference.set_result_cache_enabled(false);
      for (const std::string& q : queries) {
        Result<QueryAnswer> a = reference.Run(q, /*optimize=*/false);
        ASSERT_TRUE(a.ok()) << q << ": " << a.status();
        answers[x][u].push_back(a->regions);
      }
    }
  }

  QueryEngine engine(base.Clone());
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 300;
  constexpr int kWrites = 120;
  std::atomic<int> wrong{0};
  std::atomic<int> reads_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        const size_t q = static_cast<size_t>(t + i) % queries.size();
        Result<PreparedQuery> prepared = engine.Prepare(queries[q], {});
        if (!prepared.ok()) {
          ++wrong;
          continue;
        }
        // The prepared query holds the catalog read lock: the state read
        // here is the one Execute evaluates.
        const Instance& now = engine.instance();
        const int x = *now.Get("R1").value() == x_sets[0] ? 0 : 1;
        const int u = *now.Get("R3").value() == u_sets[0] ? 0 : 1;
        Result<QueryAnswer> answer = engine.Execute(*prepared);
        if (!answer.ok() || answer->regions != answers[x][u][q]) ++wrong;
        ++reads_done;
      }
    });
  }
  threads.emplace_back([&] {
    Rng writer_rng(17);
    int x = 0, u = 0;
    for (int i = 0; i < kWrites; ++i) {
      Status s;
      if (writer_rng.Chance(0.5)) {
        x ^= 1;
        s = engine.ReplaceRegions("R1", x_sets[x]);
      } else {
        u ^= 1;
        s = engine.ReplaceRegions("R3", u_sets[u]);
      }
      if (!s.ok()) ++wrong;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(reads_done.load(), kReaders * kReadsPerReader);
  // Each query's subtrees hold one entry each at most, whatever the
  // interleaving: 7 roots and their inner operators.
  int64_t forms = 0;
  std::set<std::string> seen;
  for (const std::string& q : queries) {
    Result<QueryAnswer> plan = engine.Run("explain " + q);
    ASSERT_TRUE(plan.ok());
    std::vector<ExprPtr> subtrees;
    CollectSubtrees(plan->executed, &subtrees);
    for (const ExprPtr& s : subtrees) {
      if (seen.insert(Expr::Canonicalize(s)->ToString()).second) ++forms;
    }
  }
  EXPECT_LE(engine.result_cache().entries(), forms);
}

}  // namespace
}  // namespace regal
