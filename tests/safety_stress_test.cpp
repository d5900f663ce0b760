// Resource governance, cancellation and fault-injection suite (ctest labels
// `safety` and `timeouts`). The stress tests arm failpoints on the engine's
// execution paths and prove the robustness contract: every injected failure
// surfaces as a clean non-OK Status, degradations keep answers bit-identical,
// and the engine remains fully usable afterwards.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/algebra.h"
#include "core/eval.h"
#include "core/expr.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "doc/srccode.h"
#include "exec/thread_pool.h"
#include "fmft/emptiness.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/parser.h"
#include "safety/context.h"
#include "safety/failpoint.h"
#include "util/random.h"

namespace regal {
namespace {

using safety::CancelToken;
using safety::FailpointRegistry;
using safety::QueryContext;
using safety::QueryLimits;

// Every test leaves the process-wide registry clean; a leaked armed
// failpoint would poison unrelated suites.
class SafetyTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Default().DisarmAll(); }
};

Result<QueryEngine> DictionaryEngine(int entries = 30) {
  DictionaryGeneratorOptions options;
  options.entries = entries;
  return QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
}

// ---------------------------------------------------------------------------
// Failpoint registry semantics
// ---------------------------------------------------------------------------

using FailpointTest = SafetyTest;

TEST_F(FailpointTest, DisarmedIsInert) {
  EXPECT_EQ(FailpointRegistry::ArmedCountRelaxed(), 0);
  EXPECT_FALSE(safety::FailpointFires("never.armed"));
  EXPECT_TRUE(safety::CheckFailpoint("never.armed").ok());
}

TEST_F(FailpointTest, ArmFiresEveryHitUntilDisarmed) {
  auto& registry = FailpointRegistry::Default();
  registry.Arm("t.always");
  EXPECT_TRUE(registry.IsArmed("t.always"));
  EXPECT_GT(FailpointRegistry::ArmedCountRelaxed(), 0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(safety::FailpointFires("t.always"));
  EXPECT_EQ(registry.FireCount("t.always"), 5);
  Status injected = safety::CheckFailpoint("t.always");
  EXPECT_EQ(injected.code(), StatusCode::kInternal);
  EXPECT_NE(injected.message().find("injected failure at 't.always'"),
            std::string::npos);
  registry.Disarm("t.always");
  EXPECT_FALSE(safety::FailpointFires("t.always"));
  EXPECT_EQ(registry.FireCount("t.always"), 0);
}

TEST_F(FailpointTest, SkipAndMaxFires) {
  FailpointRegistry::Config config;
  config.skip = 2;
  config.max_fires = 3;
  FailpointRegistry::Default().Arm("t.window", config);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(safety::FailpointFires("t.window"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false}));
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  auto sequence = [](uint64_t seed) {
    FailpointRegistry::Config config;
    config.probability = 0.5;
    config.seed = seed;
    FailpointRegistry::Default().Arm("t.coin", config);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(safety::FailpointFires("t.coin"));
    FailpointRegistry::Default().Disarm("t.coin");
    return out;
  };
  std::vector<bool> a = sequence(7);
  EXPECT_EQ(a, sequence(7));       // Reproducible from the seed alone.
  EXPECT_NE(a, sequence(8));       // And actually seed-dependent.
  int fires = 0;
  for (bool b : a) fires += b ? 1 : 0;
  EXPECT_GT(fires, 8);             // A fair-ish coin, not constant.
  EXPECT_LT(fires, 56);
}

TEST_F(FailpointTest, ArmFromSpecSyntax) {
  auto& registry = FailpointRegistry::Default();
  ASSERT_TRUE(
      registry.ArmFromSpec("a.b; c.d=0.25@9 ;e.f#2; g.h=1#1").ok());
  EXPECT_EQ(registry.Armed(),
            (std::vector<std::string>{"a.b", "c.d", "e.f", "g.h"}));
  EXPECT_TRUE(safety::FailpointFires("e.f"));
  EXPECT_TRUE(safety::FailpointFires("e.f"));
  EXPECT_FALSE(safety::FailpointFires("e.f"));  // #2 cap reached.

  EXPECT_EQ(registry.ArmFromSpec("x.y=1.5").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.ArmFromSpec("x.y@notanumber").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.ArmFromSpec("=0.5").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailpointTest, ArmFromSpecRejectsNonFiniteProbability) {
  // strtod parses "nan"/"inf"; NaN in particular defeats range checks
  // written as `p < 0 || p > 1` and would arm a failpoint that never fires.
  auto& registry = FailpointRegistry::Default();
  EXPECT_EQ(registry.ArmFromSpec("x.y=nan").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.ArmFromSpec("x.y=-nan").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.ArmFromSpec("x.y=inf").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(registry.IsArmed("x.y"));
}

// ---------------------------------------------------------------------------
// QueryContext limits
// ---------------------------------------------------------------------------

using ContextTest = SafetyTest;

TEST_F(ContextTest, UnlimitedContextAlwaysPasses) {
  QueryLimits limits;
  EXPECT_FALSE(limits.Any());
  QueryContext context(limits);
  EXPECT_TRUE(context.Check().ok());
  EXPECT_FALSE(context.ShouldAbort());
  EXPECT_TRUE(context.ChargeMemory(int64_t{1} << 40).ok());
}

TEST_F(ContextTest, ExpiredDeadlineFailsCheck) {
  QueryLimits limits;
  limits.deadline_ms = 1e-6;  // Expired by the first checkpoint.
  QueryContext context(limits);
  while (!context.ShouldAbort()) {
  }
  EXPECT_EQ(context.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ContextTest, CancelTokenStopsTheQuery) {
  QueryLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  QueryContext context(limits);
  EXPECT_TRUE(context.Check().ok());
  limits.cancel->Cancel();
  EXPECT_TRUE(context.ShouldAbort());
  EXPECT_EQ(context.Check().code(), StatusCode::kCancelled);
}

TEST_F(ContextTest, MemoryBudgetIsStickyAndTracksPeak) {
  QueryLimits limits;
  limits.memory_limit_bytes = 100;
  QueryContext context(limits);
  EXPECT_TRUE(context.ChargeMemory(60).ok());
  EXPECT_EQ(context.Check().code(), StatusCode::kOk);
  EXPECT_EQ(context.ChargeMemory(60).code(), StatusCode::kResourceExhausted);
  // The violation is sticky: later checkpoints keep failing.
  EXPECT_EQ(context.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(context.ShouldAbort());
  EXPECT_EQ(context.peak_memory_bytes(), 120);
}

TEST_F(ContextTest, AdmissionMeasuresDagsNotTrees) {
  // shared is one DAG node used twice; a tree walk would double-count it.
  ExprPtr shared = Expr::Union(Expr::Name("a"), Expr::Name("b"));
  ExprPtr expr = Expr::Intersect(shared, shared);
  safety::ExprComplexity complexity = safety::MeasureExpr(expr);
  EXPECT_EQ(complexity.nodes, 4);  // a, b, union, intersect.
  EXPECT_EQ(complexity.depth, 3);

  QueryLimits limits;
  limits.max_expr_nodes = 4;
  EXPECT_TRUE(safety::AdmitExpr(expr, limits).ok());
  limits.max_expr_nodes = 3;
  EXPECT_EQ(safety::AdmitExpr(expr, limits).code(),
            StatusCode::kResourceExhausted);
  limits = QueryLimits{};
  limits.max_expr_depth = 2;
  EXPECT_EQ(safety::AdmitExpr(expr, limits).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ContextTest, AdmissionSurvivesPathologicallyDeepExpressions) {
  // Far beyond the parser's 200-depth cap — reachable through RunExpr with
  // programmatically built expressions. Measuring such an expression must
  // not itself recurse to its depth: admission would stack-overflow on
  // exactly the queries it exists to reject.
  constexpr int kDepth = 200000;
  std::vector<ExprPtr> spine;
  spine.reserve(kDepth + 1);
  ExprPtr expr = Expr::Name("a");
  spine.push_back(expr);
  for (int i = 0; i < kDepth; ++i) {
    expr = Expr::Union(Expr::Name("a"), expr);
    spine.push_back(expr);
  }
  safety::ExprComplexity complexity = safety::MeasureExpr(expr);
  EXPECT_EQ(complexity.depth, kDepth + 1);
  QueryLimits limits;
  limits.max_expr_depth = 200;
  EXPECT_EQ(safety::AdmitExpr(expr, limits).code(),
            StatusCode::kResourceExhausted);
  // Dismantle root-first: each pop frees exactly one node (its child is
  // still held by the spine), keeping teardown iterative as well —
  // destroying the root of a 200k-deep shared_ptr chain would recurse.
  expr.reset();
  while (!spine.empty()) spine.pop_back();
}

// ---------------------------------------------------------------------------
// Engine-level governance
// ---------------------------------------------------------------------------

using GovernanceTest = SafetyTest;

TEST_F(GovernanceTest, ExpiredDeadlineSurfacesWithinOneOperator) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.deadline_ms = 1e-6;
  auto answer = engine->Run("sense within entry", limits);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernanceTest, CancelledQueryReturnsCancelled) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();  // Cancelled before evaluation starts.
  auto answer = engine->Run("sense within entry", limits);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernanceTest, CancellationNeverTruncatesTheRootKernel) {
  // A cancel landing while the ROOT operator's partitioned kernel runs makes
  // the remaining chunks bail without output; the evaluator's final context
  // check must turn that truncated set into Cancelled, never an OK answer.
  // The sweep of cancel delays races the kernel on purpose — the invariant
  // holds for every interleaving: OK implies the complete answer.
  Rng rng(17);
  auto random_set = [&rng](size_t n) {
    std::vector<Region> regions;
    regions.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Offset left = static_cast<Offset>(rng.Below(1u << 20));
      Offset len = static_cast<Offset>(rng.Below(64));
      regions.push_back(Region{left, left + len});
    }
    return RegionSet::FromUnsorted(std::move(regions));
  };
  Instance instance;
  ASSERT_TRUE(instance.AddRegionSet("a", random_set(1 << 17)).ok());
  ASSERT_TRUE(instance.AddRegionSet("b", random_set(1 << 17)).ok());
  ExprPtr expr = Expr::Union(Expr::Name("a"), Expr::Name("b"));
  const RegionSet expected =
      Union(*instance.Get("a").value(), *instance.Get("b").value());
  exec::ThreadPool pool(4);
  ParallelEvalPolicy policy;
  policy.pool = &pool;
  policy.min_rows = 0;
  for (int trial = 0; trial < 16; ++trial) {
    QueryLimits limits;
    limits.cancel = std::make_shared<CancelToken>();
    QueryContext context(limits);
    EvalOptions options;
    options.parallel = &policy;
    options.context = &context;
    std::thread canceller([&limits, trial] {
      std::this_thread::sleep_for(std::chrono::microseconds(trial * 40));
      limits.cancel->Cancel();
    });
    Result<RegionSet> answer = Evaluate(instance, expr, options);
    canceller.join();
    if (answer.ok()) {
      EXPECT_EQ(answer.value(), expected) << "trial=" << trial;
    } else {
      EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
          << "trial=" << trial;
    }
  }
}

TEST_F(GovernanceTest, MemoryBudgetBoundsMaterialization) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.memory_limit_bytes = 1;
  auto answer = engine->Run("sense within entry", limits);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
  // A generous budget admits the same query.
  limits.memory_limit_bytes = int64_t{1} << 30;
  EXPECT_TRUE(engine->Run("sense within entry", limits).ok());
}

TEST_F(GovernanceTest, AdmissionControlRejectsOversizedQueries) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.max_expr_depth = 2;
  auto answer = engine->Run("quote within sense within entry", limits);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
  limits = QueryLimits{};
  limits.max_expr_nodes = 2;
  EXPECT_FALSE(engine->Run("(quote | def) within sense", limits).ok());
}

TEST_F(GovernanceTest, EngineWideLimitsApplyAndClear) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.max_expr_depth = 1;
  engine->set_limits(limits);
  EXPECT_FALSE(engine->Run("sense within entry").ok());
  engine->set_limits(QueryLimits{});
  EXPECT_TRUE(engine->Run("sense within entry").ok());
}

TEST_F(GovernanceTest, ViolationLeavesEngineUnchanged) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  auto expected = engine->Run("sense within entry");
  ASSERT_TRUE(expected.ok());

  QueryLimits limits;
  limits.memory_limit_bytes = 1;
  ASSERT_FALSE(engine->Run("sense within entry", limits).ok());
  limits = QueryLimits{};
  limits.deadline_ms = 1e-6;
  ASSERT_FALSE(engine->Run("quote within sense", limits).ok());

  auto after = engine->Run("sense within entry");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->regions, expected->regions);
}

TEST_F(GovernanceTest, ProfileCarriesGovernanceOutcome) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.memory_limit_bytes = int64_t{1} << 30;
  auto answer =
      engine->Run("explain analyze sense within entry", limits);
  ASSERT_TRUE(answer.ok());
  ASSERT_TRUE(answer->profile.has_value());
  EXPECT_TRUE(answer->profile->limits_enforced);
  EXPECT_FALSE(answer->profile->degraded);
  EXPECT_GT(answer->profile->peak_memory_bytes, 0);
  std::string json = answer->profile->Json();
  EXPECT_NE(json.find("\"governance\""), std::string::npos);
  EXPECT_NE(json.find("\"limits_enforced\":true"), std::string::npos);
  EXPECT_NE(json.find("\"peak_memory_bytes\""), std::string::npos);
}

TEST_F(GovernanceTest, GovernanceCountersAdvance) {
  obs::Registry& registry = obs::Registry::Default();
  int64_t admitted_before =
      registry.GetCounter("regal_safety_queries_admitted_total")->value();
  int64_t rejected_before =
      registry
          .GetCounter("regal_safety_queries_rejected_total",
                      {{"reason", "complexity"}})
          ->value();
  int64_t stopped_before =
      registry
          .GetCounter("regal_safety_queries_stopped_total",
                      {{"reason", "over_memory"}})
          ->value();

  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  QueryLimits limits;
  limits.memory_limit_bytes = int64_t{1} << 30;
  ASSERT_TRUE(engine->Run("sense within entry", limits).ok());
  limits.memory_limit_bytes = 1;
  ASSERT_FALSE(engine->Run("sense within entry", limits).ok());
  limits = QueryLimits{};
  limits.max_expr_nodes = 1;
  ASSERT_FALSE(engine->Run("sense within entry", limits).ok());

  EXPECT_GE(
      registry.GetCounter("regal_safety_queries_admitted_total")->value(),
      admitted_before + 2);
  EXPECT_EQ(registry
                .GetCounter("regal_safety_queries_rejected_total",
                            {{"reason", "complexity"}})
                ->value(),
            rejected_before + 1);
  EXPECT_EQ(registry
                .GetCounter("regal_safety_queries_stopped_total",
                            {{"reason", "over_memory"}})
                ->value(),
            stopped_before + 1);
}

// ---------------------------------------------------------------------------
// Parser robustness (admission caps + fuzz)
// ---------------------------------------------------------------------------

using ParserGuardTest = SafetyTest;

TEST_F(ParserGuardTest, DeepNestingIsRejectedNotOverflowed) {
  std::string query(300, '(');
  query += "a";
  query += std::string(300, ')');
  auto parsed = ParseQuery(query);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
  // Depth inside the cap still parses (each paren level costs two
  // productions, ParseExpr and ParseStruct, so 90 levels ~ depth 180).
  std::string shallow(90, '(');
  shallow += "a";
  shallow += std::string(90, ')');
  EXPECT_TRUE(ParseQuery(shallow).ok());
}

TEST_F(ParserGuardTest, TokenFloodIsRejected) {
  std::string query = "a";
  for (int i = 0; i < 40000; ++i) query += "|a";  // 80001 tokens.
  auto parsed = ParseQuery(query);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ParserGuardTest, RightLeaningStructChainIsRejected) {
  std::string query = "a";
  for (int i = 0; i < 300; ++i) query += " within a";
  auto parsed = ParseQuery(query);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ParserGuardTest, RandomAndTruncatedInputsNeverCrash) {
  const char kAlphabet[] = "ab|&-()\",~ within matching word bi ?*";
  Rng rng(2026);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string query;
    size_t length = rng.Below(64);
    for (size_t i = 0; i < length; ++i) {
      query += kAlphabet[rng.Below(sizeof(kAlphabet) - 1)];
    }
    auto parsed = ParseStatement(query);  // Must return, never throw/crash.
    (void)parsed.ok();
  }
  // Truncations of a valid query exercise every incomplete-production path.
  const std::string valid =
      "explain analyze bi(entry, sense matching ~\"term*\", quote) "
      "| entry including (headword matching \"t?rm1\") & sense - def";
  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    auto parsed = ParseStatement(valid.substr(0, cut));
    (void)parsed.ok();
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

using DegradeTest = SafetyTest;

TEST_F(DegradeTest, SaturatedPoolFallsBackToSequential) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  engine->set_parallel_cost_threshold(0);  // Every query wants the pool.
  auto expected = engine->Run("sense within entry");
  ASSERT_TRUE(expected.ok());

  FailpointRegistry::Default().Arm("exec.pool.saturated");
  auto degraded = engine->Run("explain analyze sense within entry");
  ASSERT_TRUE(degraded.ok());  // Degraded, not failed.
  EXPECT_EQ(degraded->regions, expected->regions);
  ASSERT_TRUE(degraded->profile.has_value());
  EXPECT_TRUE(degraded->profile->degraded);
  ASSERT_FALSE(degraded->profile->fallbacks.empty());
  EXPECT_NE(degraded->profile->fallbacks[0].find("pool saturated"),
            std::string::npos);
  std::string json = degraded->profile->Json();
  EXPECT_NE(json.find("pool saturated"), std::string::npos);
}

TEST_F(DegradeTest, KernelDegradeKeepsAnswersBitIdentical) {
  auto engine = DictionaryEngine();
  ASSERT_TRUE(engine.ok());
  engine->set_parallel_cost_threshold(0);
  engine->mutable_parallel_policy()->min_rows = 0;
  // Kernel degradation only fires when kernels run; the result cache would
  // answer the armed re-runs without touching a kernel.
  engine->set_result_cache_enabled(false);
  const char* queries[] = {
      "sense within entry",
      "(quote within sense) | (def within sense)",
      "entry including (headword matching \"term*\")",
      "sense & sense within entry",
  };
  std::vector<RegionSet> expected;
  for (const char* query : queries) {
    auto answer = engine->Run(query);
    ASSERT_TRUE(answer.ok()) << query;
    expected.push_back(answer->regions);
  }
  FailpointRegistry::Default().Arm("exec.kernel.degrade");
  for (size_t i = 0; i < 4; ++i) {
    auto answer = engine->Run(queries[i]);
    ASSERT_TRUE(answer.ok()) << queries[i];
    EXPECT_EQ(answer->regions, expected[i]) << queries[i];
  }
  EXPECT_GT(FailpointRegistry::Default().FireCount("exec.kernel.degrade"), 0);
  // The fallback is attributed to the query that degraded (tallied on the
  // query's own counter, not diffed from the process-global metric).
  auto profiled = engine->Run("explain analyze sense within entry");
  ASSERT_TRUE(profiled.ok());
  ASSERT_TRUE(profiled->profile.has_value());
  EXPECT_TRUE(profiled->profile->degraded);
  ASSERT_FALSE(profiled->profile->fallbacks.empty());
  EXPECT_NE(profiled->profile->fallbacks[0].find("kernel fallback"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault-injection stress: every injected failure is a clean Status and the
// engine is bit-identical afterwards.
// ---------------------------------------------------------------------------

using FaultInjectionTest = SafetyTest;

TEST_F(FaultInjectionTest, IndexBuildFailpointSurfacesAsStatus) {
  DictionaryGeneratorOptions options;
  options.entries = 5;
  std::string sgml = GenerateDictionarySource(options);
  ProgramGeneratorOptions program_options;
  std::string program = GenerateProgramSource(program_options);

  FailpointRegistry::Default().Arm("index.build");
  auto from_sgml = QueryEngine::FromSgmlSource(sgml);
  ASSERT_FALSE(from_sgml.ok());
  EXPECT_NE(from_sgml.status().message().find("injected"), std::string::npos);
  auto from_program = QueryEngine::FromProgramSource(program);
  ASSERT_FALSE(from_program.ok());
  EXPECT_NE(from_program.status().message().find("injected"),
            std::string::npos);

  FailpointRegistry::Default().DisarmAll();
  EXPECT_TRUE(QueryEngine::FromSgmlSource(sgml).ok());
  EXPECT_TRUE(QueryEngine::FromProgramSource(program).ok());
}

TEST_F(FaultInjectionTest, EmptinessSearchFailpointAndDeadline) {
  ExprPtr expr = Expr::Binary(OpKind::kIncluded, Expr::Name("a"),
                              Expr::Name("b"));
  FailpointRegistry::Default().Arm("fmft.emptiness");
  auto report = CheckEmptiness(expr);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("injected"), std::string::npos);
  FailpointRegistry::Default().DisarmAll();

  QueryLimits limits;
  limits.deadline_ms = 1e-6;
  QueryContext context(limits);
  while (!context.ShouldAbort()) {
  }
  EmptinessOptions options;
  options.context = &context;
  auto bounded = CheckEmptiness(expr, options);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, RandomizedInjectionAlwaysFailsClean) {
  auto engine = DictionaryEngine(20);
  ASSERT_TRUE(engine.ok());
  engine->set_parallel_cost_threshold(0);  // Exercise the parallel sites too.
  engine->mutable_parallel_policy()->min_rows = 0;
  const char* queries[] = {
      "sense within entry",
      "(quote within sense) | (def within sense)",
      "entry including (headword matching \"term*\")",
  };
  std::vector<RegionSet> expected;
  for (const char* query : queries) {
    auto answer = engine->Run(query);
    ASSERT_TRUE(answer.ok()) << query;
    expected.push_back(answer->regions);
  }

  const char* fatal_sites[] = {"eval.node", "exec.kernel.fault",
                               "exec.pool.subtree"};
  for (const char* site : fatal_sites) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      FailpointRegistry::Config config;
      config.probability = 0.5;
      config.seed = seed;
      FailpointRegistry::Default().Arm(site, config);
      for (int round = 0; round < 6; ++round) {
        const char* query = queries[round % 3];
        auto answer = engine->Run(query);
        if (!answer.ok()) {
          // The only acceptable failure is the injected one, surfaced as a
          // clean Status — never a crash, never a garbled error.
          EXPECT_EQ(answer.status().code(), StatusCode::kInternal)
              << site << " seed " << seed;
          EXPECT_NE(answer.status().message().find("injected failure"),
                    std::string::npos)
              << site << " seed " << seed;
        } else {
          // Survived rounds must still be bit-identical.
          EXPECT_EQ(answer->regions, expected[round % 3])
              << site << " seed " << seed;
        }
      }
      FailpointRegistry::Default().Disarm(site);
    }
  }

  // After the storm: the engine answers exactly as a fresh one does.
  auto fresh = DictionaryEngine(20);
  ASSERT_TRUE(fresh.ok());
  for (size_t i = 0; i < 3; ++i) {
    auto survivor = engine->Run(queries[i]);
    auto control = fresh->Run(queries[i]);
    ASSERT_TRUE(survivor.ok());
    ASSERT_TRUE(control.ok());
    EXPECT_EQ(survivor->regions, expected[i]);
    EXPECT_EQ(survivor->regions, control->regions);
  }
}

}  // namespace
}  // namespace regal
