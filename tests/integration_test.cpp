// Cross-module integration tests: corpus -> storage -> engine -> views ->
// algebra, plus brute-force property checks for the span constructor.

#include <gtest/gtest.h>

#include "core/construct.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "doc/srccode.h"
#include "query/engine.h"
#include "storage/snapshot.h"
#include "util/random.h"

namespace regal {
namespace {

RegionSet NaiveSpanJoin(const RegionSet& starts, const RegionSet& ends) {
  std::vector<Region> out;
  for (const Region& a : starts) {
    const Region* best = nullptr;
    for (const Region& b : ends) {
      if (!(a.right < b.left)) continue;
      if (best == nullptr || b.left < best->left ||
          (b.left == best->left && b.right < best->right)) {
        best = &b;
      }
    }
    if (best != nullptr) out.push_back(Region{a.left, best->right});
  }
  return RegionSet::FromUnsorted(std::move(out));
}

TEST(SpanJoinPropertyTest, MatchesBruteForce) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Region> s_regions;
    std::vector<Region> e_regions;
    for (int i = 0; i < 12; ++i) {
      Offset a = static_cast<Offset>(rng.Below(40));
      Offset b = a + static_cast<Offset>(rng.Below(6));
      (rng.Chance(0.5) ? s_regions : e_regions).push_back(Region{a, b});
    }
    RegionSet starts = RegionSet::FromUnsorted(s_regions);
    RegionSet ends = RegionSet::FromUnsorted(e_regions);
    EXPECT_EQ(SpanJoin(starts, ends), NaiveSpanJoin(starts, ends))
        << "starts=" << starts.ToString() << " ends=" << ends.ToString();
  }
}

TEST(IntegrationTest, ProgramCorpusThroughStorageAndEngine) {
  ProgramGeneratorOptions gen;
  gen.num_procs = 25;
  gen.max_nesting = 4;
  gen.seed = 17;
  auto parsed = ParseProgram(GenerateProgramSource(gen));
  ASSERT_TRUE(parsed.ok());

  auto encoded = storage::EncodeSnapshot(*parsed);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto reloaded = storage::DecodeSnapshot(*encoded);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  QueryEngine engine(std::move(reloaded).value(), SourceCodeRig());
  ASSERT_TRUE(engine.Validate().ok());
  auto names = engine.Run("Name within Proc_header within Proc within Program");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->regions.size(), 25u);
  // Word-match leaf over the reloaded index.
  auto words = engine.Run("word \"proc\"");
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(words->regions.size(), 25u);
}

TEST(IntegrationTest, DictionaryViewsAndSpans) {
  DictionaryGeneratorOptions options;
  options.entries = 25;
  options.seed = 77;
  auto engine =
      QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  ASSERT_TRUE(engine.ok());
  // A view for quoted entries, then a span view from headwords to the
  // first following quote.
  ASSERT_TRUE(engine->DefineView("quoted", "entry including quote").ok());
  ASSERT_TRUE(engine->DefineSpanView("lead", "headword", "quote").ok());
  auto combined = engine->Run("lead within quoted");
  ASSERT_TRUE(combined.ok()) << combined.status();
  auto quoted = engine->Run("quoted");
  ASSERT_TRUE(quoted.ok());
  // Every lead span inside a quoted entry is counted at most once per
  // quoted entry's headword.
  EXPECT_LE(combined->regions.size(), quoted->regions.size());
  EXPECT_GT(combined->regions.size(), 0u);
}

TEST(IntegrationTest, EngineErrorPaths) {
  auto engine = QueryEngine::FromSgmlSource("<a>x</a>");
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Run("").ok());
  EXPECT_FALSE(engine->Run("a |").ok());
  EXPECT_FALSE(engine->Run("missing").ok());
  EXPECT_FALSE(engine->Run("a matching \"\"").ok());
  EXPECT_FALSE(engine->DefineSpanView("v", "missing", "a").ok());
  EXPECT_FALSE(QueryEngine::FromSgmlSource("<a>").ok());
  EXPECT_FALSE(QueryEngine::FromProgramSource("nope").ok());
}

TEST(IntegrationTest, ValidateCatchesRigViolation) {
  // An instance that is hierarchical but violates the provided RIG.
  Instance instance;
  ASSERT_TRUE(instance.AddRegionSet("Par", RegionSet{Region{0, 9}}).ok());
  ASSERT_TRUE(instance.AddRegionSet("Doc", RegionSet{Region{2, 5}}).ok());
  Digraph rig;
  rig.AddEdge("Doc", "Par");
  QueryEngine engine(std::move(instance), rig);
  EXPECT_FALSE(engine.Validate().ok());
}

}  // namespace
}  // namespace regal
