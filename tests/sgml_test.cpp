#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/eval.h"
#include "doc/sgml.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {
namespace {

TEST(SgmlTest, ParsesNestedTags) {
  auto instance = ParseSgml("<a><b>hello</b><b>world</b></a>");
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_TRUE(instance->Validate().ok());
  EXPECT_EQ((*instance->Get("a"))->size(), 1u);
  EXPECT_EQ((*instance->Get("b"))->size(), 2u);
}

TEST(SgmlTest, RegionSpansTags) {
  auto instance = ParseSgml("<a>xy</a>");
  ASSERT_TRUE(instance.ok());
  const RegionSet& a = **instance->Get("a");
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], (Region{0, 8}));  // '<' of <a> .. '>' of </a>.
}

TEST(SgmlTest, AttributesTolerated) {
  auto instance = ParseSgml("<a id=1 class='x'>text</a>");
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance->Get("a"))->size(), 1u);
}

TEST(SgmlTest, Malformed) {
  EXPECT_FALSE(ParseSgml("<a>text").ok());
  EXPECT_FALSE(ParseSgml("<a></b>").ok());
  EXPECT_FALSE(ParseSgml("</a>").ok());
  EXPECT_FALSE(ParseSgml("<a").ok());
  EXPECT_FALSE(ParseSgml("<>x</>").ok());
}

// The reference parse: a tag scan that builds a std::string per tag and
// collects each name's regions in a std::map, which also puts the names in
// sorted order. ParseSgml must agree with it on every input.
Result<Instance> ReferenceParseSgml(const std::string& source) {
  struct OpenTag {
    std::string name;
    Offset left;
  };
  std::vector<OpenTag> stack;
  std::map<std::string, std::vector<Region>> sets;
  for (size_t i = 0; i < source.size(); ++i) {
    if (source[i] != '<') continue;
    size_t close = source.find('>', i);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated tag at offset " +
                                     std::to_string(i));
    }
    bool is_end = i + 1 < source.size() && source[i + 1] == '/';
    size_t name_start = i + (is_end ? 2 : 1);
    size_t name_end = name_start;
    while (name_end < close && IsIdentChar(source[name_end])) ++name_end;
    std::string name = source.substr(name_start, name_end - name_start);
    if (name.empty()) {
      return Status::InvalidArgument("tag with empty name at offset " +
                                     std::to_string(i));
    }
    if (is_end) {
      if (stack.empty() || stack.back().name != name) {
        return Status::InvalidArgument("mismatched close tag </" + name +
                                       "> at offset " + std::to_string(i));
      }
      sets[name].push_back(
          Region{stack.back().left, static_cast<Offset>(close)});
      stack.pop_back();
    } else {
      stack.push_back(OpenTag{name, static_cast<Offset>(i)});
    }
    i = close;
  }
  if (!stack.empty()) {
    return Status::InvalidArgument("unclosed tag <" + stack.back().name + ">");
  }
  Instance instance;
  for (auto& [name, regions] : sets) {
    instance.SetRegionSet(name, RegionSet::FromUnsorted(std::move(regions)));
  }
  instance.BindText(std::make_shared<Text>(source));
  return instance;
}

// ParseSgml and the reference return the same status, or instances with the
// same names in the same order, regions, stamps and text.
void ExpectParsesAlike(const std::string& source) {
  const std::string what = ::testing::PrintToString(source.substr(0, 200));
  Result<Instance> got = ParseSgml(source);
  Result<Instance> want = ReferenceParseSgml(source);
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  ASSERT_EQ(got->names(), want->names()) << what;
  for (const std::string& name : want->names()) {
    EXPECT_EQ(**got->Get(name), **want->Get(name)) << name << " in " << what;
    EXPECT_EQ(got->NameStamp(name), want->NameStamp(name)) << name;
  }
  EXPECT_EQ(got->epoch(), want->epoch()) << what;
  EXPECT_EQ(got->content_stamp(), want->content_stamp()) << what;
  ASSERT_NE(got->text(), nullptr);
  EXPECT_EQ(got->text()->content(), source);
  EXPECT_EQ(got->word_index()->NumTokens(), want->word_index()->NumTokens());
}

// A random document: tags nest, a name may nest inside itself, names prefix
// each other, attributes hold '/', '=' and quotes, and text holds '>', '/'
// and '='.
class RandomDocument {
 public:
  explicit RandomDocument(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string out;
    const int roots = static_cast<int>(rng_.Below(3));
    for (int i = 0; i < roots; ++i) Element(&out, 0);
    Words(&out);
    return out;
  }

 private:
  void Element(std::string* out, int depth) {
    static const char* const kNames[] = {"a", "ab", "abc", "b", "ba", "A",
                                         "Z_9", "_", "sec", "section"};
    static const char* const kAttributes[] = {
        " id=1", " href=/x/y", " k='v'", " q=\"a=b\"", " x=\"'\"",
        " y='\"/\"'", "  ", " /", " a/b=c"};
    const std::string name = kNames[rng_.Below(std::size(kNames))];
    Words(out);
    *out += "<" + name;
    const int attributes = static_cast<int>(rng_.Below(3));
    for (int i = 0; i < attributes; ++i) {
      *out += kAttributes[rng_.Below(std::size(kAttributes))];
    }
    *out += '>';
    const int children = depth < 5 ? static_cast<int>(rng_.Below(4)) : 0;
    for (int i = 0; i < children; ++i) Element(out, depth + 1);
    Words(out);
    *out += "</" + name + (rng_.Chance(0.2) ? " " : "") + ">";
  }

  void Words(std::string* out) {
    static const char* const kPieces[] = {"alpha", " ", "beta", "\n", ">",
                                          "/",     "=", "a1_b", "'", "\""};
    const int pieces = static_cast<int>(rng_.Below(4));
    for (int i = 0; i < pieces; ++i) {
      *out += kPieces[rng_.Below(std::size(kPieces))];
    }
  }

  Rng rng_;
};

TEST(SgmlTest, AgreesWithReferenceParse) {
  for (const char* source :
       {"<a>text", "<a></b>", "</a>", "<a", "<>x</>", "", "plain text",
        "<a><a></a></a>", "<ab><a></a></ab>", "<a></a><ab></ab><a></a>",
        "<a x='>'>y</a>", "<a>1 > 0</a>", "<a/>", "<a></a >", "< a></a>",
        "<a></ a>", "<a><b></a></b>", "<a></a></a>", "<a><b></b>"}) {
    ExpectParsesAlike(source);
  }
  RandomDocument documents(31);
  Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string source = documents.Generate();
    ExpectParsesAlike(source);
    if (source.empty()) continue;
    // Broken variants: one byte dropped (an unclosed, mismatched or
    // unterminated tag, or an empty name, where it hits markup), a close
    // tag renamed, the document cut short.
    std::string dropped = source;
    dropped.erase(rng.Below(source.size()), 1);
    ExpectParsesAlike(dropped);
    const size_t close = source.rfind("</");
    if (close != std::string::npos) {
      const std::string_view view(source);
      ExpectParsesAlike(
          StrCat({view.substr(0, close + 2), "q", view.substr(close + 2)}));
    }
    ExpectParsesAlike(source.substr(0, rng.Below(source.size())));
  }
}

TEST(SgmlTest, SelectionOverContent) {
  auto instance = ParseSgml(
      "<doc><sec>alpha beta</sec><sec>gamma delta</sec></doc>");
  ASSERT_TRUE(instance.ok());
  Pattern p = *Pattern::Parse("gamma");
  auto result = Evaluate(*instance, Expr::Select(p, Expr::Name("sec")));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  auto doc = Evaluate(*instance, Expr::Select(p, Expr::Name("doc")));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->size(), 1u);
}

TEST(SgmlTest, GeneratedPlayParses) {
  PlayGeneratorOptions options;
  options.acts = 2;
  options.scenes_per_act = 2;
  options.speeches_per_scene = 3;
  std::string source = GeneratePlaySource(options);
  auto instance = ParseSgml(source);
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_TRUE(instance->Validate().ok());
  EXPECT_EQ((*instance->Get("act"))->size(), 2u);
  EXPECT_EQ((*instance->Get("scene"))->size(), 4u);
  EXPECT_EQ((*instance->Get("speech"))->size(), 12u);
}

TEST(SgmlTest, PlaySatisfiesPlayRig) {
  std::string source = GeneratePlaySource(PlayGeneratorOptions{});
  auto instance = ParseSgml(source);
  ASSERT_TRUE(instance.ok());
  Digraph rig = PlayRig();
  Digraph derived = instance->DeriveRig();
  for (Digraph::NodeId v = 0; v < derived.NumNodes(); ++v) {
    for (Digraph::NodeId w : derived.OutNeighbors(v)) {
      auto rv = rig.FindNode(derived.Label(v));
      auto rw = rig.FindNode(derived.Label(w));
      ASSERT_TRUE(rv.ok() && rw.ok());
      EXPECT_TRUE(rig.HasEdge(*rv, *rw));
    }
  }
}

TEST(SgmlTest, SpeechesBySpeaker) {
  std::string source = GeneratePlaySource(PlayGeneratorOptions{});
  auto instance = ParseSgml(source);
  ASSERT_TRUE(instance.ok());
  Pattern hamlet = *Pattern::Parse("HAMLET");
  // speech ⊃ σ_HAMLET(speaker).
  ExprPtr e = Expr::Including(Expr::Name("speech"),
                              Expr::Select(hamlet, Expr::Name("speaker")));
  auto result = Evaluate(*instance, e);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 0u);
  EXPECT_LT(result->size(), (*instance->Get("speech"))->size());
}

}  // namespace
}  // namespace regal
