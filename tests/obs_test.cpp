#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/eval.h"
#include "doc/sgml.h"
#include "json_checker.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace regal {
namespace {

using testutil::ValidJson;

TEST(JsonWriterTest, BuildsDocuments) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a \"quoted\" name\n");
  w.Key("n").Int(-7);
  w.Key("flag").Bool(true);
  w.Key("xs").BeginArray();
  w.Double(1.5);
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  w.EndObject();
  std::string doc = w.Take();
  EXPECT_EQ(doc,
            "{\"name\":\"a \\\"quoted\\\" name\\n\",\"n\":-7,"
            "\"flag\":true,\"xs\":[1.5,null]}");
  EXPECT_TRUE(ValidJson(doc));
}

TEST(MetricsTest, CounterAndGaugeSemantics) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("ops", {{"op", "union"}});
  c->Increment();
  c->Increment(4);
  // Same name+labels returns the same instance; different labels a new one.
  EXPECT_EQ(registry.GetCounter("ops", {{"op", "union"}}), c);
  EXPECT_NE(registry.GetCounter("ops", {{"op", "within"}}), c);
  EXPECT_EQ(c->value(), 5);

  registry.GetGauge("depth")->Set(3.5);
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  bool saw_union = false;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.name == "ops" && m.labels.at("op") == "union") {
      saw_union = true;
      EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kCounter);
      EXPECT_EQ(m.value, 5);
    }
  }
  EXPECT_TRUE(saw_union);
}

TEST(MetricsTest, HistogramBuckets) {
  obs::Registry registry;
  obs::Histogram* h =
      registry.GetHistogram("latency", {}, std::vector<double>{1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5);
  h->Observe(50);
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 55.5);
  std::vector<int64_t> cumulative = h->CumulativeBucketCounts();
  ASSERT_EQ(cumulative.size(), 3u);  // {<=1, <=10, +inf}.
  EXPECT_EQ(cumulative[0], 1);
  EXPECT_EQ(cumulative[1], 2);
  EXPECT_EQ(cumulative[2], 3);

  std::string json = obs::MetricsToJson(registry.Snapshot());
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
}

TEST(CountersTest, SinkSwapAndRestore) {
  EXPECT_EQ(obs::CountersSink(), nullptr);
  obs::OpCounters local;
  obs::OpCounters* previous = obs::SwapCountersSink(&local);
  EXPECT_EQ(previous, nullptr);
  EXPECT_EQ(obs::CountersSink(), &local);
  obs::SwapCountersSink(previous);
  EXPECT_EQ(obs::CountersSink(), nullptr);
}

constexpr char kDoc[] =
    "<doc><sec><para>alpha beta</para><para>gamma</para></sec>"
    "<sec><para>delta</para></sec></doc>";

TEST(TraceTest, SpanTreeMirrorsExpressionShape) {
  auto instance = ParseSgml(kDoc);
  ASSERT_TRUE(instance.ok()) << instance.status();

  // `para` is a shared subtree: its second mention must show up as a
  // childless memoized span, so the tree still mirrors the expression.
  ExprPtr para = Expr::Name("para");
  ExprPtr expr = Expr::Union(
      Expr::Binary(OpKind::kIncluded, para, Expr::Name("sec")), para);

  obs::Tracer tracer;
  EvalOptions options;
  options.tracer = &tracer;
  auto result = Evaluate(*instance, expr, options);
  ASSERT_TRUE(result.ok()) << result.status();

  obs::Span root = tracer.Build();
  EXPECT_EQ(root.name, "union");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.rows_out, static_cast<int64_t>(result->size()));

  const obs::Span& within = root.children[0];
  EXPECT_EQ(within.name, "within");
  ASSERT_EQ(within.children.size(), 2u);
  EXPECT_EQ(within.children[0].name, "scan");
  EXPECT_EQ(within.children[0].detail, "para");
  EXPECT_EQ(within.children[1].detail, "sec");
  EXPECT_GT(within.counters.comparisons, 0);

  const obs::Span& cached = root.children[1];
  EXPECT_TRUE(cached.from_cache);
  EXPECT_TRUE(cached.children.empty());
  EXPECT_EQ(cached.rows_out, 3);  // All three paras, from the memo table.

  EXPECT_EQ(root.TotalSpans(), 5);
  EXPECT_EQ(root.Depth(), 3);
  // The whole-trace counters cover every operator in the plan.
  EXPECT_GE(tracer.counters().comparisons, within.counters.comparisons);
}

TEST(TraceTest, ExportsAreWellFormed) {
  auto instance = ParseSgml(kDoc);
  ASSERT_TRUE(instance.ok());
  auto expr = Expr::Binary(OpKind::kIncluded, Expr::Name("para"),
                           Expr::Name("sec"));
  obs::Tracer tracer;
  EvalOptions options;
  options.tracer = &tracer;
  ASSERT_TRUE(Evaluate(*instance, expr, options).ok());
  obs::Span root = tracer.Build();

  std::string tree = obs::FormatSpanTree(root);
  EXPECT_NE(tree.find("within"), std::string::npos);
  EXPECT_NE(tree.find("scan para"), std::string::npos);
  EXPECT_NE(tree.find("rows="), std::string::npos);

  std::string json = obs::SpanToJson(root);
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"name\":\"within\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);

  std::string chrome = obs::SpanToChromeTrace(root);
  EXPECT_TRUE(ValidJson(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceTest, DisabledTracingTouchesNothing) {
  auto instance = ParseSgml(kDoc);
  ASSERT_TRUE(instance.ok());
  auto expr = Expr::Binary(OpKind::kIncluded, Expr::Name("para"),
                           Expr::Name("sec"));

  // No tracer: the thread's counter sink stays null the whole way.
  EXPECT_EQ(obs::CountersSink(), nullptr);
  ASSERT_TRUE(Evaluate(*instance, expr).ok());
  EXPECT_EQ(obs::CountersSink(), nullptr);

  // A tracer that no evaluator uses records no spans, and its sink is
  // restored on destruction.
  {
    obs::Tracer idle;
    EXPECT_NE(obs::CountersSink(), nullptr);
    EXPECT_EQ(idle.num_spans(), 0);
  }
  EXPECT_EQ(obs::CountersSink(), nullptr);
}

TEST(MetricsTest, GaugeAddIsAnUpDownCounter) {
  obs::Registry registry;
  obs::Gauge* g = registry.GetGauge("inflight");
  g->Add(1);
  g->Add(2.5);
  g->Add(-1);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->Set(0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesNewlinesAndControls) {
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(obs::JsonEscape("tab\tcr\r"), "tab\\tcr\\r");
  EXPECT_EQ(obs::JsonEscape(std::string("nul\x01", 4)), "nul\\u0001");
  // Non-ASCII UTF-8 passes through byte-for-byte.
  EXPECT_EQ(obs::JsonEscape("caf\xc3\xa9 \xe2\x9c\x93"),
            "caf\xc3\xa9 \xe2\x9c\x93");
}

TEST(JsonEscapeTest, HostileStringsStillProduceValidDocuments) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("k\"ey\\\n").String(std::string("v\"\\\n\t\x01 caf\xc3\xa9", 13));
  w.EndObject();
  std::string doc = w.Take();
  EXPECT_TRUE(ValidJson(doc)) << doc;
}

TEST(PrometheusTest, LabelAndHelpEscaping) {
  EXPECT_EQ(obs::PrometheusEscapeLabel("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  // Help text escapes backslash and newline but not quotes (exposition
  // format 0.0.4).
  EXPECT_EQ(obs::PrometheusEscapeHelp("say \"hi\"\\\n"), "say \"hi\"\\\\\\n");
  // Non-ASCII UTF-8 passes through byte-for-byte.
  EXPECT_EQ(obs::PrometheusEscapeLabel("caf\xc3\xa9"), "caf\xc3\xa9");
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(PrometheusTest, ExpositionGroupsFamiliesAndRendersHistograms) {
  obs::Registry registry;
  registry.GetCounter("regal_queries_total", {{"verb", "run"}})->Increment(3);
  registry.GetCounter("regal_queries_total", {{"verb", "explain"}})
      ->Increment();
  registry.GetGauge("regal_cache_bytes")->Set(123);
  obs::Histogram* h = registry.GetHistogram("regal_query_latency_ms", {},
                                            std::vector<double>{1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5);
  h->Observe(50);
  std::string text = obs::MetricsToPrometheus(registry.Snapshot());

  // HELP/TYPE exactly once per family, even with several label sets.
  EXPECT_EQ(CountOccurrences(text, "# TYPE regal_queries_total counter"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# HELP regal_queries_total "), 1u);
  EXPECT_EQ(CountOccurrences(text, "# TYPE regal_cache_bytes gauge"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# TYPE regal_query_latency_ms histogram"),
            1u);

  EXPECT_NE(text.find("regal_queries_total{verb=\"run\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("regal_queries_total{verb=\"explain\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("regal_cache_bytes 123"), std::string::npos);
  EXPECT_NE(text.find("regal_query_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("regal_query_latency_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("regal_query_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("regal_query_latency_ms_sum 55.5"), std::string::npos);
  EXPECT_NE(text.find("regal_query_latency_ms_count 3"), std::string::npos);
}

TEST(PrometheusTest, HostileLabelValuesAreEscapedInTheExposition) {
  obs::Registry registry;
  registry.GetCounter("regal_queries_total", {{"verb", "we\"ird\\x\n"}})
      ->Increment();
  std::string text = obs::MetricsToPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("verb=\"we\\\"ird\\\\x\\n\""), std::string::npos)
      << text;
}

TEST(EventLogTest, EmitsWellFormedJsonl) {
  auto sink = std::make_shared<obs::CaptureSink>();
  obs::EventLog log(sink);
  log.Log(obs::Severity::kWarning, "engine", "slow \"query\"\n", 7,
          {{"elapsed_ms", "12.5"}, {"q", "caf\xc3\xa9"}});
  std::vector<std::string> lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(ValidJson(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"subsystem\":\"engine\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"query_id\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"elapsed_ms\":\"12.5\""), std::string::npos);
}

TEST(EventLogTest, MinSeverityFiltersBeforeRateLimiting) {
  auto sink = std::make_shared<obs::CaptureSink>();
  obs::EventLog log(sink);
  log.Log(obs::Severity::kDebug, "engine", "noise");
  EXPECT_TRUE(sink->lines().empty());
  EXPECT_EQ(log.dropped(), 0);  // Filtered, not dropped.
  log.set_min_severity(obs::Severity::kDebug);
  log.Log(obs::Severity::kDebug, "engine", "now visible");
  EXPECT_EQ(sink->lines().size(), 1u);
}

TEST(EventLogTest, RateLimiterBoundsEmissionAndCountsDrops) {
  auto sink = std::make_shared<obs::CaptureSink>();
  obs::EventLogOptions options;
  options.max_records_per_second = 10;
  obs::EventLog log(sink, options);
  for (int i = 0; i < 200; ++i) {
    log.Log(obs::Severity::kInfo, "t", "m");
  }
  // Burst = one second of budget; the loop finishes in well under a second,
  // so emissions stay near the burst size and the rest are counted dropped.
  EXPECT_LE(sink->lines().size(), 30u);
  EXPECT_GE(log.dropped(), 1);
  EXPECT_EQ(static_cast<size_t>(log.dropped()) + sink->lines().size(), 200u);
}

TEST(FlightRecorderTest, KeepsErrorsAndSlowQueriesDropsFastOnes) {
  obs::EventLog quiet_log(std::make_shared<obs::CaptureSink>());
  obs::FlightRecorderOptions options;
  options.slow_threshold_ms = 10;
  options.sample_period = 0;  // No background sampling in this test.
  options.log = &quiet_log;
  obs::FlightRecorder recorder(options);

  obs::QueryRecord fast;
  fast.query_id = recorder.NextQueryId();
  fast.elapsed_ms = 1;
  EXPECT_FALSE(recorder.WouldKeep(true, 1, false));
  EXPECT_FALSE(recorder.Record(fast));

  obs::QueryRecord slow;
  slow.query_id = recorder.NextQueryId();
  slow.elapsed_ms = 50;
  EXPECT_TRUE(recorder.WouldKeep(true, 50, false));
  EXPECT_TRUE(recorder.Record(slow));

  obs::QueryRecord failed;
  failed.query_id = recorder.NextQueryId();
  failed.ok = false;
  failed.status = "NOT_FOUND: unknown region name 'zzz'";
  failed.status_code = "not_found";
  EXPECT_TRUE(recorder.WouldKeep(false, 0, false));
  EXPECT_TRUE(recorder.Record(failed));

  std::vector<obs::QueryRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);  // Most recent first.
  EXPECT_FALSE(snapshot[0].ok);
  EXPECT_EQ(snapshot[0].status_code, "not_found");
  EXPECT_TRUE(snapshot[1].slow);     // Stamped by Record.
  EXPECT_GT(snapshot[0].ts_ms, 0);   // Stamped when absent.
  EXPECT_EQ(recorder.entries(), 2u);
}

TEST(FlightRecorderTest, RingEvictsOldestFirst) {
  obs::EventLog quiet_log(std::make_shared<obs::CaptureSink>());
  obs::FlightRecorderOptions options;
  options.capacity = 2;
  options.slow_threshold_ms = 0;  // Keep everything.
  options.log = &quiet_log;
  obs::FlightRecorder recorder(options);
  for (int i = 0; i < 3; ++i) {
    obs::QueryRecord record;
    record.query_id = recorder.NextQueryId();
    recorder.Record(std::move(record));
  }
  std::vector<obs::QueryRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].query_id, 3u);
  EXPECT_EQ(snapshot[1].query_id, 2u);  // Id 1 evicted.
  recorder.Clear();
  EXPECT_EQ(recorder.entries(), 0u);
}

TEST(FlightRecorderTest, SamplingIsDeterministicOneInN) {
  obs::FlightRecorderOptions options;
  options.sample_period = 4;
  obs::FlightRecorder recorder(options);
  int sampled = 0;
  for (uint64_t id = 1; id <= 100; ++id) {
    if (recorder.ShouldSample(id)) ++sampled;
    // Deterministic: the same id always answers the same way.
    EXPECT_EQ(recorder.ShouldSample(id), recorder.ShouldSample(id));
  }
  EXPECT_EQ(sampled, 25);
  recorder.set_sample_period(0);
  EXPECT_FALSE(recorder.ShouldSample(4));
}

TEST(FlightRecorderTest, TunablesAdjustLive) {
  obs::FlightRecorder recorder;
  recorder.set_slow_threshold_ms(5);
  EXPECT_TRUE(recorder.WouldKeep(true, 5, false));
  EXPECT_FALSE(recorder.WouldKeep(true, 4.9, false));
  recorder.set_slow_threshold_ms(1000);
  EXPECT_FALSE(recorder.WouldKeep(true, 5, false));
  recorder.set_sample_period(2);
  EXPECT_TRUE(recorder.ShouldSample(2));
  EXPECT_FALSE(recorder.ShouldSample(3));
}

TEST(FlightRecorderTest, QueryIdsAreMonotonicFromOne) {
  obs::FlightRecorder recorder;
  EXPECT_EQ(recorder.NextQueryId(), 1u);
  EXPECT_EQ(recorder.NextQueryId(), 2u);
  EXPECT_EQ(recorder.last_query_id(), 2u);
}

TEST(FlightRecorderTest, RecordJsonIsWellFormed) {
  obs::QueryRecord record;
  record.query_id = 9;
  record.ts_ms = 1717000000000;
  record.query = "\"para\" included \"sec\"\n";
  record.ok = false;
  record.status = "NOT_FOUND: nope \"quoted\"";
  record.status_code = "not_found";
  record.elapsed_ms = 1.25;
  record.plan.name = "within";
  record.plan.children.push_back(obs::Span{});
  std::string json = record.Json();
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"query_id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"status_code\":\"not_found\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
}

TEST(FlightRecorderTest, SlowAndErroredQueriesEchoToTheLog) {
  auto sink = std::make_shared<obs::CaptureSink>();
  obs::EventLog log(sink);
  obs::FlightRecorderOptions options;
  options.slow_threshold_ms = 10;
  options.sample_period = 0;
  options.log = &log;
  obs::FlightRecorder recorder(options);

  obs::QueryRecord slow;
  slow.query_id = recorder.NextQueryId();
  slow.elapsed_ms = 25;
  slow.query = "\"alpha\"";
  recorder.Record(std::move(slow));

  obs::QueryRecord failed;
  failed.query_id = recorder.NextQueryId();
  failed.ok = false;
  failed.status_code = "cancelled";
  recorder.Record(std::move(failed));

  // A sampled fast query is kept but not logged: sampling is background
  // collection, not an operator-facing event.
  obs::QueryRecord sampled;
  sampled.query_id = recorder.NextQueryId();
  sampled.sampled = true;
  recorder.Record(std::move(sampled));

  std::vector<std::string> lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("slow query"), std::string::npos);
  EXPECT_TRUE(ValidJson(lines[0])) << lines[0];
  EXPECT_NE(lines[1].find("query failed"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status_code\":\"cancelled\""),
            std::string::npos);
  EXPECT_EQ(recorder.entries(), 3u);
}

TEST(ScopedTimerTest, ReportsIntoTarget) {
  double elapsed_ms = -1;
  {
    ScopedTimer timer(&elapsed_ms);
    EXPECT_GE(timer.Nanos(), 0);
  }
  EXPECT_GE(elapsed_ms, 0);

  double via_callback = -1;
  {
    ScopedTimer timer([&](double ms) { via_callback = ms; });
  }
  EXPECT_GE(via_callback, 0);
}

}  // namespace
}  // namespace regal
