#include <gtest/gtest.h>

#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "doc/srccode.h"
#include "query/engine.h"
#include "query/lexer.h"
#include "query/parser.h"

namespace regal {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = LexQuery("Proc including (Var matching ~\"x*\") | A & B - C,");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[0].kind, QueryTokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "Proc");
  EXPECT_EQ(tokens->back().kind, QueryTokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(LexQuery("A matching \"unterminated").ok());
  EXPECT_FALSE(LexQuery("A @ B").ok());
}

TEST(ParserTest, Precedence) {
  // '|' binds loosest, '&'/'-' tighter, structural ops tightest of the
  // binary layers.
  auto e = ParseQuery("A | B & C");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(A | (B & C))");
  auto e2 = ParseQuery("A & B | C");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->ToString(), "((A & B) | C)");
  auto e3 = ParseQuery("A within B | C");
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ((*e3)->ToString(), "((A within B) | C)");
}

TEST(ParserTest, StructuralOpsGroupRight) {
  auto e = ParseQuery("Name within Proc_header within Proc within Program");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(),
            "(Name within (Proc_header within (Proc within Program)))");
}

TEST(ParserTest, MatchingAndCaseInsensitive) {
  auto e = ParseQuery("Var matching \"x\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), OpKind::kSelect);
  EXPECT_FALSE((*e)->pattern().case_insensitive());
  auto ci = ParseQuery("Var matching ~\"X*\"");
  ASSERT_TRUE(ci.ok());
  EXPECT_TRUE((*ci)->pattern().case_insensitive());
}

TEST(ParserTest, BothIncludedSyntax) {
  auto e = ParseQuery("bi(Proc, Var matching \"x\", Var matching \"y\")");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), OpKind::kBothIncluded);
  EXPECT_EQ((*e)->children().size(), 3u);
}

TEST(ParserTest, BiAsPlainNameStillWorks) {
  auto e = ParseQuery("bi within A");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->child(0)->name(), "bi");
}

TEST(ParserTest, DirectOperators) {
  auto e = ParseQuery("Proc dincluding Var");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), OpKind::kDirectIncluding);
  auto e2 = ParseQuery("Var dwithin Proc");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->kind(), OpKind::kDirectIncluded);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("A |").ok());
  EXPECT_FALSE(ParseQuery("(A").ok());
  EXPECT_FALSE(ParseQuery("A B").ok());
  EXPECT_FALSE(ParseQuery("A matching x").ok());
  EXPECT_FALSE(ParseQuery("bi(A, B)").ok());
  EXPECT_FALSE(ParseQuery("A matching \"\"").ok());
}

TEST(ParserTest, RoundTripsToString) {
  const char* queries[] = {
      "(A | (B & C))",
      "(Name within (Proc_header within Program))",
      "bi(Proc, (Var matching \"x\"), (Var matching \"y\"))",
      "(Proc dincluding (Body dincluding Var))",
      "((A matching ~\"p?t*\") before B)",
  };
  for (const char* q : queries) {
    auto e = ParseQuery(q);
    ASSERT_TRUE(e.ok()) << q << ": " << e.status();
    auto again = ParseQuery((*e)->ToString());
    ASSERT_TRUE(again.ok()) << (*e)->ToString();
    EXPECT_TRUE((*e)->Equals(**again)) << q;
  }
}

constexpr char kProgram[] =
    "program Main;\n"
    "var v1;\n"
    "proc p0;\n"
    "  var v2;\n"
    "  proc p1; var v1; begin write v1 end;\n"
    "begin call p1 end;\n"
    "begin call p0 end.\n";

TEST(EngineTest, EndToEndProgramQueries) {
  auto engine = QueryEngine::FromProgramSource(kProgram);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->Validate().ok());

  auto names = engine->Run("Name within Proc_header within Proc within Program");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(names->regions.size(), 2u);
  // The optimizer shortened the chain via the Figure 1 RIG.
  EXPECT_GE(names->rewrite_rules_applied, 1);
  EXPECT_LT(names->executed->NumOps(), names->parsed->NumOps());

  auto direct = engine->Run(
      "Proc dincluding (Proc_body dincluding (Var matching \"v1\"))");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->regions.size(), 1u);

  auto unknown = engine->Run("Nope within Program");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, OptimizeToggleKeepsResults) {
  auto engine = QueryEngine::FromProgramSource(kProgram);
  ASSERT_TRUE(engine.ok());
  const char* query = "Name within Proc_header within Proc within Program";
  auto fast = engine->Run(query, /*optimize=*/true);
  auto slow = engine->Run(query, /*optimize=*/false);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ(fast->regions, slow->regions);
  EXPECT_EQ(slow->rewrite_rules_applied, 0);
  EXPECT_LE(fast->eval_stats.operator_evals, slow->eval_stats.operator_evals);
}

TEST(EngineTest, RowsRenderSnippets) {
  auto engine = QueryEngine::FromProgramSource(kProgram);
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Run("Proc_header");
  ASSERT_TRUE(answer.ok());
  auto rows = answer->Rows(engine->instance());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0].find("proc p0"), std::string::npos);
}

TEST(EngineTest, RowsLimit) {
  auto engine = QueryEngine::FromProgramSource(kProgram);
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Run("Name | Var | Proc | Proc_header");
  ASSERT_TRUE(answer.ok());
  auto rows = answer->Rows(engine->instance(), 3);
  EXPECT_EQ(rows.size(), 4u);  // 3 rows + "... (n more)".
  EXPECT_NE(rows[3].find("more"), std::string::npos);
}

TEST(EngineTest, SgmlEndToEnd) {
  std::string source = GeneratePlaySource(PlayGeneratorOptions{});
  auto engine = QueryEngine::FromSgmlSource(source);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->Validate().ok());
  auto answer =
      engine->Run("speech including (speaker matching \"HAMLET\")");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_GT(answer->regions.size(), 0u);
  auto pair = engine->Run(
      "bi(line, line matching \"word1\", line matching \"word2\")");
  ASSERT_TRUE(pair.ok());
}

TEST(EngineTest, BothIncludedQuerySemantics) {
  // Two scenes; only the first has word-A before word-B inside one line
  // container... build a crisp document instead.
  auto engine = QueryEngine::FromSgmlSource(
      "<doc><sec>alpha beta</sec><sec>beta alpha</sec></doc>");
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Run(
      "bi(sec, sec matching \"alpha\", sec matching \"beta\")");
  ASSERT_TRUE(answer.ok());
  // σ picks whole sec regions; a sec cannot strictly include itself, so no
  // sec qualifies — the classic granularity pitfall, shown in the example
  // programs with token-level regions instead.
  EXPECT_TRUE(answer->regions.empty());
}

TEST(ParserTest, StatementVerbs) {
  auto run = ParseStatement("A within B");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->verb, QueryVerb::kRun);

  auto explain = ParseStatement("explain A within B");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->verb, QueryVerb::kExplain);
  EXPECT_EQ(explain->expr->ToString(), "(A within B)");

  auto analyze = ParseStatement("explain analyze A within B");
  ASSERT_TRUE(analyze.ok());
  EXPECT_EQ(analyze->verb, QueryVerb::kExplainAnalyze);

  // The keywords are contextual: parenthesized, `explain` is a region name;
  // elsewhere it never needs quoting at all.
  auto as_name = ParseStatement("(explain)");
  ASSERT_TRUE(as_name.ok());
  EXPECT_EQ(as_name->verb, QueryVerb::kRun);
  EXPECT_EQ(as_name->expr->name(), "explain");
  auto inner = ParseStatement("A within explain");
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->verb, QueryVerb::kRun);

  EXPECT_FALSE(ParseStatement("explain").ok());
}

TEST(EngineTest, RewritesReported) {
  auto engine = QueryEngine::FromProgramSource(kProgram);
  ASSERT_TRUE(engine.ok());
  auto answer =
      engine->Run("Name within Proc_header within Proc within Program");
  ASSERT_TRUE(answer.ok());
  // The chain-shortening rewrite must be visible in the answer, not
  // re-derivable only by calling the optimizer by hand.
  ASSERT_FALSE(answer->rewrites.empty());
  EXPECT_EQ(answer->rewrites[0].rule, "chain-shorten");
  EXPECT_NE(answer->rewrites[0].ToString().find(" -> "), std::string::npos);
  EXPECT_LT(answer->rewrites[0].cost_after.cost,
            answer->rewrites[0].cost_before.cost);

  auto unoptimized = engine->Run("Name within Proc", /*optimize=*/false);
  ASSERT_TRUE(unoptimized.ok());
  EXPECT_TRUE(unoptimized->rewrites.empty());
}

class ExplainTest : public ::testing::Test {
 protected:
  static QueryEngine MakeDictionaryEngine() {
    DictionaryGeneratorOptions options;
    options.entries = 40;
    options.seed = 7;
    auto engine =
        QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }
};

// The engine holds its per-query metric handles; each executed statement
// counts once under its verb, and every executed one (not plain `explain`,
// which runs nothing) observes one latency.
TEST_F(ExplainTest, EachVerbAndTheLatencyHistogramCountTheQueriesRun) {
  QueryEngine engine = MakeDictionaryEngine();
  obs::Registry& registry = obs::Registry::Default();
  auto queries = [&](const char* verb) {
    return registry.GetCounter("regal_queries_total", {{"verb", verb}})
        ->value();
  };
  obs::Histogram* latency = registry.GetHistogram("regal_query_latency_ms");
  const int64_t run0 = queries("run");
  const int64_t explain0 = queries("explain");
  const int64_t analyze0 = queries("explain_analyze");
  const int64_t latency0 = latency->count();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.Run("sense within entry").ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Run("explain sense within entry").ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine.Run("explain analyze sense within entry").ok());
  }
  ASSERT_FALSE(engine.Run("nosuchname within entry").ok());
  EXPECT_EQ(queries("run") - run0, 5);
  EXPECT_EQ(queries("explain") - explain0, 3);
  EXPECT_EQ(queries("explain_analyze") - analyze0, 2);
  EXPECT_EQ(latency->count() - latency0, 7);
}

TEST_F(ExplainTest, ExplainAnalyzeProfilesTheQuery) {
  QueryEngine engine = MakeDictionaryEngine();
  // This test observes real execution (work counters, per-operator spans);
  // the cross-query result cache would answer the repeated query from a
  // single cached root span instead.
  engine.set_result_cache_enabled(false);
  auto plain = engine.Run("sense within entry within dictionary");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->profile.has_value());

  auto answer = engine.Run("explain analyze sense within entry within dictionary");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->regions, plain->regions);
  ASSERT_TRUE(answer->profile.has_value());
  const QueryProfile& profile = *answer->profile;
  EXPECT_TRUE(profile.analyzed);
  EXPECT_GT(profile.counters.comparisons, 0);

  // The plan tree mirrors the executed expression, with per-operator output
  // cardinalities and cost-model estimates attached.
  const obs::Span& root = profile.plan;
  EXPECT_EQ(root.name, "within");
  EXPECT_EQ(root.rows_out, static_cast<int64_t>(answer->regions.size()));
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "scan");
  EXPECT_EQ(root.children[0].detail, "sense");
  EXPECT_GE(root.est_rows, 0);
  EXPECT_GE(root.children[0].est_rows, 0);

  std::string tree = profile.Tree();
  EXPECT_NE(tree.find("within"), std::string::npos);
  EXPECT_NE(tree.find("scan sense"), std::string::npos);
  EXPECT_NE(tree.find("rows="), std::string::npos);
  EXPECT_NE(tree.find("cmp="), std::string::npos);
  EXPECT_NE(tree.find("ms"), std::string::npos);

  std::string json = profile.Json();
  EXPECT_NE(json.find("\"name\":\"within\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\":"), std::string::npos);
  std::string chrome = profile.ChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ExplainTest, ExplainDoesNotExecute) {
  QueryEngine engine = MakeDictionaryEngine();
  auto answer = engine.Run("explain sense within entry");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->regions.empty());
  ASSERT_TRUE(answer->profile.has_value());
  EXPECT_FALSE(answer->profile->analyzed);
  const obs::Span& root = answer->profile->plan;
  EXPECT_EQ(root.name, "within");
  EXPECT_GE(root.est_rows, 0);
  EXPECT_EQ(root.rows_out, 0);

  // Rows() renders the plan for explain answers.
  auto rows = answer->Rows(engine.instance());
  ASSERT_FALSE(rows.empty());
  EXPECT_NE(rows[0].find("within"), std::string::npos);
  // Un-executed plans carry no timing lines.
  EXPECT_EQ(answer->profile->Tree().find("ms"), std::string::npos);
}

// σ and `word` nodes name their pattern as the query spells it, wildcards
// and the case-insensitive `~` included, so that exact, prefix, infix and
// case-insensitive selections read apart in both kinds of plan.
TEST_F(ExplainTest, PatternNodesRenderAsTheQuerySpellsThem) {
  QueryEngine engine = MakeDictionaryEngine();
  const struct {
    const char* query;
    const char* name;
    const char* detail;
  } cases[] = {
      {"word \"term1\"", "word", "\"term1\""},
      {"word \"term1*\"", "word", "\"term1*\""},
      {"def matching \"*e*\"", "matching", "\"*e*\""},
      {"word ~\"Term1\"", "word", "~\"Term1\""},
      {"def matching ~\"*E\"", "matching", "~\"*E\""},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.query);
    for (const std::string verb : {"explain ", "explain analyze "}) {
      auto answer = engine.Run(verb + c.query, /*optimize=*/false);
      ASSERT_TRUE(answer.ok()) << answer.status();
      ASSERT_TRUE(answer->profile.has_value());
      const obs::Span& root = answer->profile->plan;
      EXPECT_EQ(root.name, c.name);
      EXPECT_EQ(root.detail, c.detail);
      EXPECT_NE(answer->profile->Tree().find(std::string(c.name) + " " +
                                             c.detail),
                std::string::npos)
          << answer->profile->Tree();
    }
  }
}

TEST_F(ExplainTest, ExplainAnalyzeMarksMemoizedSubtrees) {
  QueryEngine engine = MakeDictionaryEngine();
  // Per-call memoization is under test; the cross-query cache would mark
  // both sides from_cache (the canonical fingerprints match even though the
  // parser built separate subtrees).
  engine.set_result_cache_enabled(false);
  // `entry` appears twice; the optimizer's idempotence rule would collapse
  // an identical pair, so intersect with distinct shapes and disable it.
  auto answer =
      engine.RunExpr(*ParseQuery("(sense within entry) & (sense within entry)"),
                     /*optimize=*/false, /*profile=*/true);
  ASSERT_TRUE(answer.ok());
  const obs::Span& root = answer->profile->plan;
  EXPECT_EQ(root.name, "intersect");
  ASSERT_EQ(root.children.size(), 2u);
  // The parser builds separate subtrees for the two sides, so nothing memoizes
  // across them — but re-running the same ExprPtr shares everything.
  ExprPtr shared = *ParseQuery("sense within entry");
  ExprPtr twice = Expr::Intersect(shared, shared);
  auto memo = engine.RunExpr(twice, /*optimize=*/false, /*profile=*/true);
  ASSERT_TRUE(memo.ok());
  const obs::Span& memo_root = memo->profile->plan;
  ASSERT_EQ(memo_root.children.size(), 2u);
  EXPECT_FALSE(memo_root.children[0].from_cache);
  EXPECT_TRUE(memo_root.children[1].from_cache);
  EXPECT_TRUE(memo_root.children[1].children.empty());
  EXPECT_NE(memo->profile->Tree().find("(memo)"), std::string::npos);
}

}  // namespace
}  // namespace regal
