#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/eval.h"
#include "doc/sgml.h"
#include "doc/synthetic.h"
#include "query/parser.h"
#include "regal1_fixtures.h"
#include "storage/serialize.h"
#include "storage/snapshot.h"
#include "text/text.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

// The instances the checked-in REGAL1 fixtures (tests/data/regal1) were
// written from.
constexpr char kSgmlFixtureSource[] =
    "<doc><sec>alpha beta</sec><sec>gamma</sec></doc>";

Instance SyntheticFixtureInstance() {
  Instance instance = MakeFigure3Instance(2);
  instance.SetSyntheticPattern(
      *Pattern::Parse("q*"),
      RegionSet{(**instance.Get("C"))[0], (**instance.Get("A"))[1]});
  return instance;
}

// Whitespace in a pattern key (the phrase "new york", a bare CR) takes the
// length-prefixed `patternb` record; the plain key keeps `pattern`.
Instance PatternsFixtureInstance() {
  Instance instance = MakeFigure3Instance(2);
  instance.SetSyntheticPattern(*Pattern::Parse("new york"),
                               RegionSet{(**instance.Get("C"))[0]});
  instance.SetSyntheticPattern(*Pattern::Parse("a\rb"),
                               RegionSet{(**instance.Get("A"))[0]});
  instance.SetSyntheticPattern(*Pattern::Parse("plain*"),
                               RegionSet{(**instance.Get("A"))[1]});
  return instance;
}

Result<Instance> LoadFixture(const std::string& name) {
  std::istringstream in(Regal1Fixture(name));
  return LoadInstance(in);
}

void ExpectSameTables(const Instance& actual, const Instance& expected) {
  EXPECT_EQ(actual.names(), expected.names());
  for (const std::string& name : expected.names()) {
    ASSERT_TRUE(actual.Has(name)) << name;
    EXPECT_EQ(**actual.Get(name), **expected.Get(name)) << name;
  }
  EXPECT_EQ(actual.synthetic_patterns(), expected.synthetic_patterns());
  ASSERT_EQ(actual.text() != nullptr, expected.text() != nullptr);
  if (expected.text() != nullptr) {
    EXPECT_EQ(actual.text()->content(), expected.text()->content());
  }
}

TEST(StorageTest, Regal1EmitterReproducesTheFixtures) {
  EXPECT_EQ(EmitRegal1(SyntheticFixtureInstance()),
            Regal1Fixture("synthetic.regal1"));
  EXPECT_EQ(EmitRegal1(PatternsFixtureInstance()),
            Regal1Fixture("patterns.regal1"));
  EXPECT_EQ(EmitRegal1(*ParseSgml(kSgmlFixtureSource)),
            Regal1Fixture("sgml_text.regal1"));
  EXPECT_EQ(EmitRegal1(MakeFigure2Instance(5)),
            Regal1Fixture("figure2.regal1"));
}

TEST(StorageTest, SyntheticRoundTrip) {
  const Instance instance = SyntheticFixtureInstance();
  auto loaded = LoadFixture("synthetic.regal1");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameTables(*loaded, instance);
  // Synthetic W survives.
  Pattern p = *Pattern::Parse("q*");
  RegionSet c = **instance.Get("C");
  EXPECT_EQ(loaded->Select(c, p), instance.Select(c, p));
}

TEST(StorageTest, TextBackedRoundTrip) {
  auto original = ParseSgml(kSgmlFixtureSource);
  ASSERT_TRUE(original.ok());
  auto loaded = LoadFixture("sgml_text.regal1");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->text(), nullptr);
  EXPECT_EQ(loaded->text()->content(), original->text()->content());
  // The rebuilt word index answers selections identically.
  Pattern p = *Pattern::Parse("gamma");
  ExprPtr q = Expr::Select(p, Expr::Name("sec"));
  auto before = Evaluate(*original, q);
  auto after = Evaluate(*loaded, q);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
  EXPECT_EQ(before->size(), 1u);
}

// File-level opening sniffs the format: a REGAL1 file and a REGAL2 save of
// the same instance both open through LoadSnapshotFromFile.
TEST(StorageTest, FileRoundTrip) {
  Instance instance = MakeFigure2Instance(5);
  auto legacy = storage::LoadSnapshotFromFile(
      std::string(REGAL_TEST_DATA_DIR) + "/regal1/figure2.regal1");
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  ExpectSameTables(*legacy, instance);

  std::string path = testing::TempDir() + "/regal_storage_test.regal";
  ASSERT_TRUE(storage::SaveSnapshotToFile(instance, path).ok());
  auto loaded = storage::LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameTables(*loaded, *legacy);
  EXPECT_FALSE(storage::LoadSnapshotFromFile(path + ".missing").ok());
}

TEST(StorageTest, MalformedInputs) {
  auto expect_bad = [](const std::string& payload) {
    std::stringstream in(payload);
    EXPECT_FALSE(LoadInstance(in).ok()) << payload;
  };
  expect_bad("");
  expect_bad("WRONG\nend\n");
  expect_bad("REGAL1\nname A 2\n0 1\n");          // Truncated regions.
  expect_bad("REGAL1\nname A 1\n5 2\nend\n");      // left > right.
  expect_bad("REGAL1\nname A 0\n");                // Missing end.
  expect_bad("REGAL1\nbogus X 0\nend\n");          // Unknown record.
  expect_bad("REGAL1\nname A 0\nname A 0\nend\n"); // Duplicate name.
  expect_bad("REGAL1\ntext 100\nshort\nend\n");    // Truncated text.
  expect_bad("REGAL1\npattern nokey 0\nend\n");    // Bad pattern key.
}

// Regression for the loader memory bomb: a hand-edited header declaring a
// huge count/size must fail fast with InvalidArgument *before* any
// allocation sized by the declared value. (Before the fix, "name r
// 999999999" reserved ~8 GB and the text/patternb paths allocated the full
// declared size up front.)
TEST(StorageTest, HugeDeclaredCountsRejectedWithoutAllocating) {
  auto expect_invalid = [](const std::string& payload) {
    std::stringstream in(payload);
    auto loaded = LoadInstance(in);
    ASSERT_FALSE(loaded.ok()) << payload;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << payload;
    EXPECT_NE(loaded.status().message().find("exceeds remaining input"),
              std::string::npos)
        << loaded.status();
  };
  expect_invalid("REGAL1\nname r 999999999\nend\n");
  expect_invalid("REGAL1\nname r 18446744073709551615\nend\n");
  expect_invalid("REGAL1\ntext 999999999999\nshort\nend\n");
  expect_invalid("REGAL1\npatternb 999999999999 0\nx\nend\n");
  expect_invalid("REGAL1\npattern p:x 999999999\nend\n");
}

// A pattern cache-key can carry whitespace (phrase patterns like
// "new york"); the length-prefixed `patternb` record must load it
// bit-identically where the `pattern` record would misparse.
TEST(StorageTest, WhitespacePatternKeyRoundTrip) {
  const std::string bytes = Regal1Fixture("patterns.regal1");
  // Whitespace-free keys use the `pattern` record.
  EXPECT_NE(bytes.find("pattern " + Pattern::Parse("plain*")->CacheKey()),
            std::string::npos);
  EXPECT_NE(bytes.find("patternb "), std::string::npos);

  auto loaded = LoadFixture("patterns.regal1");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->synthetic_patterns(),
            PatternsFixtureInstance().synthetic_patterns());
  // Load -> emit reproduces the file bit for bit.
  EXPECT_EQ(EmitRegal1(*loaded), bytes);
}

TEST(StorageTest, CrlfInputLoadsIdentically) {
  // Single-line text and whitespace-free keys, so a global \n -> \r\n
  // transform only rewrites line terminators (a multi-line payload mangled
  // by a CRLF transfer changes the payload itself; no reader can undo that).
  auto original = ParseSgml(kSgmlFixtureSource);
  ASSERT_TRUE(original.ok());
  std::string crlf;
  for (char c : Regal1Fixture("sgml_text.regal1")) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::stringstream in(crlf);
  auto loaded = LoadInstance(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameTables(*loaded, *original);
}

TEST(StorageTest, TruncatedPatternbKeyIsInvalidArgument) {
  auto expect_bad = [](const std::string& payload) {
    std::stringstream in(payload);
    auto loaded = LoadInstance(in);
    ASSERT_FALSE(loaded.ok()) << payload;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  };
  expect_bad("REGAL1\npatternb 10 0\ns:x\nend\n");  // Key shorter than count.
  expect_bad("REGAL1\npatternb x 0\nend\n");        // Malformed header.
  expect_bad("REGAL1\npatternb 3 0\nbad\nend\n");   // Not a valid cache key.
}

// Property test: random instances — region sets of every size including
// empty, pattern keys with spaces and CR, empty and absent text — survive
// emit -> load with all tables equal, and emit -> load -> emit is
// bit-identical.
TEST(StorageTest, RandomInstancesRoundTripBitIdentically) {
  const char* pattern_specs[] = {"new york", "a\rb", "word*", "?x",
                                 "three word key"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Instance instance;
    const int names = 1 + static_cast<int>(rng.Below(4));
    for (int n = 0; n < names; ++n) {
      std::vector<Region> regions;
      const int count = static_cast<int>(rng.Below(9));  // 0 is interesting.
      for (int i = 0; i < count; ++i) {
        Offset left = static_cast<Offset>(rng.Below(1000));
        Offset right = left + static_cast<Offset>(rng.Below(50));
        regions.push_back(Region{left, right});
      }
      ASSERT_TRUE(instance
                      .AddRegionSet(StrCat({"n", std::to_string(n)}),
                                    RegionSet::FromUnsorted(std::move(regions)))
                      .ok());
    }
    const int patterns = static_cast<int>(rng.Below(3));
    for (int p = 0; p < patterns; ++p) {
      Pattern pat = *Pattern::Parse(pattern_specs[rng.Below(5)]);
      std::vector<Region> where;
      for (const std::string& name : instance.names()) {
        for (const Region& r : **instance.Get(name)) {
          if (rng.Chance(0.3)) where.push_back(r);
        }
      }
      instance.SetSyntheticPattern(pat,
                                   RegionSet::FromUnsorted(std::move(where)));
    }
    if (rng.Chance(0.5)) {
      // Text-backed (possibly empty text); the word index is rebuilt on load.
      instance.BindText(std::make_shared<Text>(
          rng.Chance(0.2) ? "" : "alpha beta gamma delta"));
    }

    const std::string bytes = EmitRegal1(instance);
    std::istringstream buffer(bytes);
    auto loaded = LoadInstance(buffer);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": " << loaded.status();
    EXPECT_EQ(loaded->names(), instance.names()) << "seed " << seed;
    for (const std::string& name : instance.names()) {
      EXPECT_EQ(**loaded->Get(name), **instance.Get(name))
          << "seed " << seed << " name " << name;
    }
    EXPECT_EQ(loaded->synthetic_patterns(), instance.synthetic_patterns())
        << "seed " << seed;
    EXPECT_EQ(loaded->text() != nullptr, instance.text() != nullptr);
    if (instance.text() != nullptr) {
      EXPECT_EQ(loaded->text()->content(), instance.text()->content());
    }
    EXPECT_EQ(EmitRegal1(*loaded), bytes) << "seed " << seed;

    // Differential parity with the REGAL2 binary format: the same instance
    // through encode -> decode must agree table-for-table with the REGAL1
    // round trip, and the binary round trip is bit-identical too.
    auto encoded = storage::EncodeSnapshot(instance);
    ASSERT_TRUE(encoded.ok()) << "seed " << seed << ": " << encoded.status();
    auto decoded = storage::DecodeSnapshot(*encoded);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": " << decoded.status();
    EXPECT_EQ(decoded->names(), loaded->names()) << "seed " << seed;
    for (const std::string& name : loaded->names()) {
      EXPECT_EQ(**decoded->Get(name), **loaded->Get(name))
          << "seed " << seed << " name " << name;
    }
    EXPECT_EQ(decoded->synthetic_patterns(), loaded->synthetic_patterns())
        << "seed " << seed;
    EXPECT_EQ(decoded->text() != nullptr, loaded->text() != nullptr);
    if (loaded->text() != nullptr) {
      EXPECT_EQ(decoded->text()->content(), loaded->text()->content());
    }
    auto re_encoded = storage::EncodeSnapshot(*decoded);
    ASSERT_TRUE(re_encoded.ok()) << "seed " << seed;
    EXPECT_EQ(*re_encoded, *encoded) << "seed " << seed;
  }
}

// LoadInstance binds text *after* the AddRegionSet calls; a natively built
// catalog binds it first. The two orders must answer every query
// identically (BindText keeps no per-set state, but this pins the contract).
TEST(StorageTest, BindTextOrderIsObservationallyEquivalent) {
  const std::string content = "alpha beta gamma alpha delta beta";
  std::vector<Region> words;
  for (size_t start = 0; start < content.size();) {
    size_t end = content.find(' ', start);
    if (end == std::string::npos) end = content.size();
    words.push_back(Region{static_cast<Offset>(start),
                           static_cast<Offset>(end - 1)});
    start = end + 1;
  }
  RegionSet word_set = RegionSet::FromUnsorted(words);
  RegionSet halves = RegionSet::FromUnsorted(
      {Region{0, 15}, Region{17, static_cast<Offset>(content.size() - 1)}});

  auto text = std::make_shared<Text>(content);
  Instance bind_first;
  bind_first.BindText(text);
  ASSERT_TRUE(bind_first.AddRegionSet("word", word_set).ok());
  ASSERT_TRUE(bind_first.AddRegionSet("half", halves).ok());

  Instance bind_last;
  ASSERT_TRUE(bind_last.AddRegionSet("word", word_set).ok());
  ASSERT_TRUE(bind_last.AddRegionSet("half", halves).ok());
  bind_last.BindText(text);

  const char* queries[] = {
      "word matching \"alpha\"",
      "half including (word matching \"beta\")",
      "(word matching \"a*\") within half",
      "word \"delta\"",
  };
  for (const char* query : queries) {
    auto parsed = ParseQuery(query);
    ASSERT_TRUE(parsed.ok()) << query;
    auto first = Evaluate(bind_first, *parsed);
    auto last = Evaluate(bind_last, *parsed);
    ASSERT_TRUE(first.ok()) << query << ": " << first.status();
    ASSERT_TRUE(last.ok()) << query << ": " << last.status();
    EXPECT_EQ(*first, *last) << query;
  }
}


// REGAL2 known-answer vector: the bytes of one fixed instance, pinned so
// neither the section framing nor the storage/wire.h payloads can drift.
// The instance has an LZ-compressed text, a region set with multi-byte
// varints, an empty region set and a synthetic pattern.
constexpr char kRegal2KnownAnswerHex[] =
    "524547414c320001011e00000000000000012600000000000000bf616c70686120626574"
    "61200b00035067616d6d61c1285456021500000000000000030000007365630300000000"
    "00000000141614161e71e790da02110000000000000005000000656d7074790000000000"
    "00000078a1e4a702120000000000000003000000646f63010000000000000000d804e88b"
    "599503160000000000000006000000733a616c702a020000000000000000081608967607"
    "707f0c00000000000000050000000000000007ea4efee5c639bc";

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

TEST(StorageTest, Regal2KnownAnswerVector) {
  Instance instance;
  instance.BindText(
      std::make_shared<Text>("alpha beta alpha beta alpha beta gamma"));
  ASSERT_TRUE(instance
                  .AddRegionSet("sec", RegionSet{Region{0, 10}, Region{11, 21},
                                                 Region{22, 37}})
                  .ok());
  ASSERT_TRUE(instance.AddRegionSet("empty", RegionSet{}).ok());
  ASSERT_TRUE(instance.AddRegionSet("doc", RegionSet{Region{0, 300}}).ok());
  instance.SetSyntheticPattern(*Pattern::Parse("alp*"),
                               RegionSet{Region{0, 4}, Region{11, 15}});

  auto encoded = storage::EncodeSnapshot(instance);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  // The text section comes first; its payload's codec byte says LZ.
  ASSERT_GT(encoded->size(), 17u);
  EXPECT_EQ((*encoded)[17], '\x01');
  EXPECT_EQ(ToHex(*encoded), kRegal2KnownAnswerHex);

  auto decoded = storage::DecodeSnapshot(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameTables(*decoded, instance);
}

}  // namespace
}  // namespace regal
