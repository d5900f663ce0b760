#include <gtest/gtest.h>

#include "text/pattern.h"
#include "text/text.h"
#include "text/tokenizer.h"

namespace regal {
namespace {

TEST(TextTest, SliceInclusive) {
  Text t("hello world");
  EXPECT_EQ(t.Slice(0, 4), "hello");
  EXPECT_EQ(t.Slice(6, 10), "world");
  EXPECT_EQ(t.Slice(4, 6), "o w");
}

// Regions reach Slice unchecked (a client's DefineRegions, a later shorter
// BindText, a decoded snapshot), so it clips them to the text.
TEST(TextTest, SliceClipsToTheText) {
  Text t("abc def");
  EXPECT_EQ(t.Slice(4, 12), "def");  // Partly past the end.
  EXPECT_EQ(t.Slice(-3, 1), "ab");   // Partly before the start.
  EXPECT_EQ(t.Slice(-3, 40), "abc def");
  EXPECT_EQ(t.Slice(20, 40), "");    // Wholly past the end.
  EXPECT_EQ(t.Slice(7, 7), "");
  EXPECT_EQ(t.Slice(-9, -1), "");    // Wholly before the start.
  EXPECT_EQ(t.Slice(0, 2147483647), "abc def");
  EXPECT_EQ(t.Snippet(20, 40), "");
  EXPECT_EQ(t.Snippet(4, 12), "def");
  EXPECT_EQ(Text().Slice(0, 0), "");
}

TEST(TextTest, LineAndColumn) {
  Text t("ab\ncd\nef");
  EXPECT_EQ(t.LineOf(0), 1);
  EXPECT_EQ(t.ColumnOf(0), 1);
  EXPECT_EQ(t.LineOf(2), 1);  // The newline belongs to line 1.
  EXPECT_EQ(t.ColumnOf(2), 3);
  EXPECT_EQ(t.LineOf(3), 2);
  EXPECT_EQ(t.LineOf(7), 3);  // The last byte.
  EXPECT_EQ(t.ColumnOf(7), 2);
  EXPECT_EQ(t.ColumnOf(3), 1);
  EXPECT_EQ(t.ColumnOf(4), 2);

  // A trailing newline ends the last line; it starts no new one.
  Text trailing("ab\ncd\n");
  EXPECT_EQ(trailing.LineOf(5), 2);
  EXPECT_EQ(trailing.ColumnOf(5), 3);

  Text one_line("no newline here");
  EXPECT_EQ(one_line.LineOf(0), 1);
  EXPECT_EQ(one_line.LineOf(14), 1);
  EXPECT_EQ(one_line.ColumnOf(14), 15);

  Text newlines("\n\n\n");
  for (Offset i = 0; i < newlines.size(); ++i) {
    EXPECT_EQ(newlines.LineOf(i), i + 1);
    EXPECT_EQ(newlines.ColumnOf(i), 1);
  }
}

TEST(TextTest, SnippetEllipsizes) {
  Text t(std::string(200, 'x'));
  std::string snippet = t.Snippet(0, 199, 20);
  EXPECT_EQ(snippet.size(), 20u);
  EXPECT_TRUE(snippet.ends_with("..."));
}

TEST(TextTest, SnippetFlattensNewlines) {
  Text t("a\nb\tc");
  EXPECT_EQ(t.Snippet(0, 4), "a b c");
}

TEST(TokenizerTest, BasicWords) {
  auto tokens = Tokenize("foo bar_baz 42");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], (Token{0, 2}));
  EXPECT_EQ(tokens[1], (Token{4, 10}));
  EXPECT_EQ(tokens[2], (Token{12, 13}));
}

TEST(TokenizerTest, PunctuationSkipped) {
  auto tokens = Tokenize("a,b;(c)");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(TokenText("a,b;(c)", tokens[2]), "c");
}

TEST(TokenizerTest, EmptyAndAllPunct) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize(" .,;! ").empty());
}

TEST(PatternTest, ExactWord) {
  auto p = Pattern::Parse("foo");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_FALSE(p->MatchesToken("food"));
  EXPECT_FALSE(p->MatchesToken("Foo"));
  EXPECT_EQ(p->ToString(), "foo");
}

TEST(PatternTest, PrefixPattern) {
  auto p = Pattern::Parse("foo*");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_TRUE(p->MatchesToken("food"));
  EXPECT_FALSE(p->MatchesToken("xfoo"));
}

TEST(PatternTest, SuffixPattern) {
  auto p = Pattern::Parse("*ing");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("querying"));
  EXPECT_TRUE(p->MatchesToken("ing"));
  EXPECT_FALSE(p->MatchesToken("ingot"));
}

TEST(PatternTest, InfixPattern) {
  auto p = Pattern::Parse("*reg*");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("regions"));
  EXPECT_TRUE(p->MatchesToken("aggregate"));
  EXPECT_FALSE(p->MatchesToken("rigs"));
}

TEST(PatternTest, QuestionMarkWildcard) {
  auto p = Pattern::Parse("f?o");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_TRUE(p->MatchesToken("fio"));
  EXPECT_FALSE(p->MatchesToken("fo"));
  EXPECT_FALSE(p->MatchesToken("fooo"));
}

TEST(PatternTest, CaseInsensitive) {
  auto p = Pattern::Parse("Foo", /*case_insensitive=*/true);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_TRUE(p->MatchesToken("FOO"));
  EXPECT_NE(p->CacheKey(), Pattern::Parse("Foo")->CacheKey());
}

TEST(PatternTest, LiteralCore) {
  auto p = Pattern::Parse("ab?cde?f");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralCore(), "cde");
  EXPECT_EQ(p->CoreOffsetInBody(), 3);
}

TEST(PatternTest, CoreLowercasedWhenInsensitive) {
  auto p = Pattern::Parse("ABC", /*case_insensitive=*/true);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralCore(), "abc");
}

TEST(PatternTest, EmptyBodyRejected) {
  EXPECT_FALSE(Pattern::Parse("").ok());
  EXPECT_FALSE(Pattern::Parse("*").ok());
  EXPECT_FALSE(Pattern::Parse("**").ok());
}

TEST(PatternTest, InteriorStarRejected) {
  EXPECT_FALSE(Pattern::Parse("a*b").ok());
}

TEST(PatternTest, RoundTrip) {
  for (const char* spec : {"foo", "foo*", "*foo", "*f?o*", "a?c"}) {
    auto p = Pattern::Parse(spec);
    ASSERT_TRUE(p.ok()) << spec;
    EXPECT_EQ(p->ToString(), spec);
    auto reparsed = Pattern::Parse(p->ToString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(*p == *reparsed);
  }
}

TEST(PatternTest, AllWildcardBodyHasEmptyCore) {
  auto p = Pattern::Parse("???");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralCore(), "");
  EXPECT_TRUE(p->MatchesToken("abc"));
  EXPECT_FALSE(p->MatchesToken("ab"));
}

}  // namespace
}  // namespace regal
