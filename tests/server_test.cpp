// Suite for the multi-tenant query service front-end (label `server`):
// wire-protocol codecs, tenant governance, the hardened socket layer's
// accept policy, and a live service driven over loopback by real clients —
// including the chaos ones (RST mid-response, torn frames, garbage bytes)
// that historically killed socket servers via SIGPIPE or a dying accept
// loop. The binary is part of the TSAN run:
//   cmake -B build-tsan -S . -DREGAL_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L server

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admin/admin_server.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "safety/admission.h"
#include "safety/tenant.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/service.h"
#include "util/random.h"
#include "util/status.h"

namespace regal {
namespace {

constexpr char kDoc[] =
    "<doc><sec><para>alpha beta</para><para>gamma</para></sec>"
    "<sec><para>delta epsilon</para></sec></doc>";

// ---------------------------------------------------------------------------
// Wire protocol codecs.

TEST(ProtocolTest, RequestRoundTrip) {
  server::Request request;
  request.tenant = "team-a";
  request.instance = "corpus1";
  request.query = "para within sec";
  request.id = 42;
  request.limit = 7;
  request.deadline_ms = 125.5;
  auto parsed = server::ParseRequest(server::RenderRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->tenant, "team-a");
  EXPECT_EQ(parsed->instance, "corpus1");
  EXPECT_EQ(parsed->query, "para within sec");
  EXPECT_EQ(parsed->id, 42);
  EXPECT_EQ(parsed->limit, 7);
  EXPECT_DOUBLE_EQ(parsed->deadline_ms, 125.5);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  server::Response response;
  response.id = 9;
  response.ok = true;
  response.code = "OK";
  response.row_count = 3;
  response.rows = {"[0, 12) \"alpha beta\"", "[13, 18) \"gamma\""};
  response.elapsed_ms = 0.25;
  auto parsed = server::ParseResponse(server::RenderResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, 9);
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->code, "OK");
  EXPECT_EQ(parsed->row_count, 3);
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_EQ(parsed->rows[0], "[0, 12) \"alpha beta\"");
  EXPECT_DOUBLE_EQ(parsed->elapsed_ms, 0.25);
}

TEST(ProtocolTest, RequestValidation) {
  // tenant and query are required and must be non-empty strings.
  EXPECT_FALSE(server::ParseRequest("{\"query\": \"sec\"}").ok());
  EXPECT_FALSE(server::ParseRequest("{\"tenant\": \"a\"}").ok());
  EXPECT_FALSE(
      server::ParseRequest("{\"tenant\": \"\", \"query\": \"sec\"}").ok());
  EXPECT_FALSE(
      server::ParseRequest("{\"tenant\": 3, \"query\": \"sec\"}").ok());
  // Unknown keys are ignored for forward compatibility.
  auto ok = server::ParseRequest(
      "{\"tenant\": \"a\", \"query\": \"sec\", \"future_key\": [\"x\"]}");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->tenant, "a");
}

TEST(ProtocolTest, FlatObjectRejectsNestingAndMalformedInput) {
  std::map<std::string, server::JsonValue> out;
  for (const char* bad : {
           "",
           "nonsense",
           "{",
           "{\"a\"",
           "{\"a\": }",
           "{\"a\": {\"nested\": 1}}",       // Nested objects rejected.
           "{\"a\": [1, 2]}",                // Non-string array rejected.
           "{\"a\": [\"x\", 1]}",            // Mixed array rejected.
           "{\"a\": \"unterminated",
           "{\"a\": \"bad escape \\q\"}",
           "{\"a\": 1} trailing",
           "{\"a\": --3}",
       }) {
    out.clear();
    EXPECT_FALSE(server::ParseFlatObject(bad, &out).ok()) << bad;
  }
  out.clear();
  Status good = server::ParseFlatObject(
      "{\"s\": \"text \\u00e9 \\n\", \"n\": -1.5e2, \"b\": true, "
      "\"z\": null, \"arr\": [\"x\", \"y\"]}",
      &out);
  ASSERT_TRUE(good.ok()) << good;
  EXPECT_EQ(out["n"].num, -150.0);
  EXPECT_TRUE(out["b"].boolean);
  ASSERT_EQ(out["arr"].strings.size(), 2u);
  EXPECT_EQ(out["arr"].strings[1], "y");
}

TEST(ProtocolTest, FlatObjectFuzzNeverCrashes) {
  // Random bytes, random mutations of a valid request: the parser must
  // reject or accept, never crash or read out of bounds (the ASAN run is
  // where the second half of that claim is enforced).
  Rng rng(0xf00dULL);
  const std::string seedtext =
      "{\"tenant\": \"a\", \"query\": \"sec\", \"id\": 3}";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    if (iter % 2 == 0) {
      size_t len = rng.Below(64);
      for (size_t i = 0; i < len; ++i) {
        text.push_back(static_cast<char>(rng.Below(256)));
      }
    } else {
      text = seedtext;
      size_t flips = 1 + rng.Below(4);
      for (size_t i = 0; i < flips; ++i) {
        text[rng.Below(text.size())] = static_cast<char>(rng.Below(256));
      }
    }
    std::map<std::string, server::JsonValue> out;
    server::ParseFlatObject(text, &out).ok();  // Either way is fine.
  }
}

TEST(ProtocolTest, FrameEncodesLittleEndianLength) {
  std::string frame = server::EncodeFrame("abc");
  ASSERT_EQ(frame.size(), server::kFrameHeaderBytes + 3);
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 3);
  EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 0);
  EXPECT_EQ(frame.substr(4), "abc");
}

// ---------------------------------------------------------------------------
// Tenant governance (deterministic, no sockets).

TEST(TenantGovernorTest, FairShareSplitsTheGlobalCap) {
  safety::TenantGovernor governor(/*capacity=*/4);
  // Alone on the box, a tenant may use every admission slot.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(governor.Admit("solo").ok()) << i;
  for (int i = 0; i < 4; ++i) governor.Release("solo");

  // Two active tenants: fair share is 4 / 2 = 2 each.
  ASSERT_TRUE(governor.Admit("a").ok());
  ASSERT_TRUE(governor.Admit("b").ok());
  ASSERT_TRUE(governor.Admit("a").ok());
  Status over = governor.Admit("a");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("fair share"), std::string::npos) << over;
  // The share grows back once the other tenant drains.
  governor.Release("b");
  EXPECT_TRUE(governor.Admit("a").ok());
  EXPECT_EQ(governor.active_tenants(), 1);
}

TEST(TenantGovernorTest, ExplicitQuotaOverridesFairShare) {
  safety::TenantGovernor governor(/*capacity=*/8);
  safety::TenantQuota quota;
  quota.max_concurrent = 1;
  governor.SetQuota("capped", quota);
  ASSERT_TRUE(governor.Admit("capped").ok());
  EXPECT_EQ(governor.Admit("capped").code(), StatusCode::kResourceExhausted);
  // Other tenants are unaffected by the capped one's ceiling.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(governor.Admit("free").ok()) << i;
}

TEST(TenantGovernorTest, ResponseByteBackpressure) {
  safety::TenantGovernor governor(/*capacity=*/64);
  safety::TenantQuota quota;
  quota.max_inflight_response_bytes = 100;
  governor.SetQuota("t", quota);
  EXPECT_TRUE(governor.ChargeResponseBytes("t", 60).ok());
  EXPECT_TRUE(governor.ChargeResponseBytes("t", 40).ok());
  Status over = governor.ChargeResponseBytes("t", 1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // A failed charge must not leak into the accounting.
  EXPECT_EQ(governor.inflight_response_bytes_total(), 100);
  governor.ReleaseResponseBytes("t", 100);
  EXPECT_EQ(governor.inflight_response_bytes_total(), 0);
  EXPECT_TRUE(governor.ChargeResponseBytes("t", 100).ok());
  // No quota → unlimited.
  EXPECT_TRUE(governor.ChargeResponseBytes("other", 1 << 30).ok());
}

TEST(TenantGovernorTest, AdmissionTicketReleasesOnDestruction) {
  safety::TenantGovernor governor(/*capacity=*/64);
  ASSERT_TRUE(governor.Admit("t").ok());
  {
    safety::AdmissionTicket ticket(&governor, "t");
    EXPECT_EQ(governor.active_tenants(), 1);
  }
  EXPECT_EQ(governor.active_tenants(), 0);
  // Over-release is harmless.
  governor.Release("t");
  EXPECT_EQ(governor.active_tenants(), 0);
}

// ---------------------------------------------------------------------------
// The hardened socket layer's accept policy. The classification is a pure
// function precisely so this policy is testable without provoking a real
// EMFILE against the process.

TEST(NetTest, AcceptErrorClassification) {
  using net::AcceptErrorAction;
  for (int transient : {ECONNABORTED, EAGAIN, EWOULDBLOCK, EINTR}) {
    EXPECT_EQ(net::ClassifyAcceptError(transient), AcceptErrorAction::kRetry)
        << transient;
  }
  for (int exhausted : {EMFILE, ENFILE, ENOBUFS, ENOMEM}) {
    EXPECT_EQ(net::ClassifyAcceptError(exhausted),
              AcceptErrorAction::kRetryBackoff)
        << exhausted;
  }
  // Unknown errnos back off rather than kill the listener: there is no
  // fatal classification at all — only a stop request ends the loop.
  EXPECT_EQ(net::ClassifyAcceptError(EIO), AcceptErrorAction::kRetryBackoff);
  EXPECT_EQ(net::ClassifyAcceptError(0), AcceptErrorAction::kRetryBackoff);
}

// ---------------------------------------------------------------------------
// Live service integration.

class QueryServiceTest : public ::testing::Test {
 protected:
  void StartService(server::ServiceOptions options = {}) {
    auto started = server::QueryService::Start(std::move(options));
    ASSERT_TRUE(started.ok()) << started.status();
    service_ = std::move(started).value();
    auto engine = QueryEngine::FromSgmlSource(kDoc);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(
        service_->AddInstance("corpus1", std::move(engine).value()).ok());
  }

  server::Client Connect() {
    auto client = server::Client::Connect("127.0.0.1", service_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(client).value() : server::Client();
  }

  server::Request MakeRequest(const std::string& tenant,
                              const std::string& query) {
    server::Request request;
    request.tenant = tenant;
    request.instance = "corpus1";
    request.query = query;
    return request;
  }

  // The liveness probe: after whatever abuse a test dished out, a fresh
  // client on a fresh connection must still get a correct answer. This is
  // the line the SIGPIPE and accept-loop regressions used to cross.
  void ExpectStillServing() {
    ASSERT_FALSE(service_->stopping());
    server::Client client = Connect();
    ASSERT_TRUE(client.connected());
    auto response = client.Call(MakeRequest("probe", "para within sec"));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->ok) << response->message;
    EXPECT_EQ(response->row_count, 3);
  }

  std::unique_ptr<server::QueryService> service_;
};

TEST_F(QueryServiceTest, AnswersQueriesOverTheWire) {
  StartService();
  server::Client client = Connect();
  server::Request request = MakeRequest("team-a", "para within sec");
  request.id = 17;
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok) << response->message;
  EXPECT_EQ(response->id, 17);
  EXPECT_EQ(response->code, "OK");
  EXPECT_EQ(response->row_count, 3);
  EXPECT_EQ(response->rows.size(), 3u);
  EXPECT_GT(response->elapsed_ms, 0);

  // The connection is persistent: more requests on the same socket.
  auto second = client.Call(MakeRequest("team-a", "word \"alpha\""));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->ok);
  EXPECT_EQ(second->row_count, 1);
}

TEST_F(QueryServiceTest, RowLimitCapsRenderedRowsNotRowCount) {
  server::ServiceOptions options;
  options.default_row_limit = 1;
  StartService(std::move(options));
  server::Client client = Connect();
  auto response = client.Call(MakeRequest("t", "para within sec"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->row_count, 3);
  // One rendered row plus the "... (N more)" elision marker.
  ASSERT_EQ(response->rows.size(), 2u);
  EXPECT_NE(response->rows[1].find("2 more"), std::string::npos)
      << response->rows[1];

  server::Request unlimited = MakeRequest("t", "para within sec");
  unlimited.limit = 100;
  auto full = client.Call(unlimited);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->rows.size(), 3u);
}

// Rows carry snippets of the instance text, which a re-bind or reload
// replaces (and frees) under the catalog write lock. The service renders
// them while the query still holds the read lock, so a concurrent re-bind
// never races the snippet read (run this under -DREGAL_SANITIZE=thread).
TEST_F(QueryServiceTest, RowsRenderUnderTheQuerysCatalogLock) {
  StartService();
  std::shared_ptr<QueryEngine> hosted = service_->engine("corpus1");
  ASSERT_NE(hosted, nullptr);
  std::atomic<bool> done{false};
  std::thread rebinder([&] {
    while (!done.load()) {
      Status bound = hosted->BindText(kDoc);
      if (!bound.ok()) {
        ADD_FAILURE() << bound;
        return;
      }
    }
  });
  server::Client client = Connect();
  // No ASSERTs until the rebinder is joined: they would return past it.
  for (int i = 0; i < 200; ++i) {
    auto response = client.Call(MakeRequest("reader", "para within sec"));
    if (!response.ok()) {
      ADD_FAILURE() << response.status();
      break;
    }
    EXPECT_TRUE(response->ok) << response->message;
    EXPECT_EQ(response->rows.size(), 3u);
    if (response->rows.empty()) break;
    EXPECT_NE(response->rows[0].find("alpha beta"), std::string::npos)
        << response->rows[0];
  }
  done.store(true);
  rebinder.join();
}

// A region may lie past the bound text: a client defines it, or a shorter
// text is bound later. Rendering it must clip its snippet, not throw on the
// handler thread and end the process.
TEST_F(QueryServiceTest, RegionsPastTheTextRenderClipped) {
  StartService();
  std::shared_ptr<QueryEngine> hosted = service_->engine("corpus1");
  ASSERT_NE(hosted, nullptr);
  ASSERT_TRUE(hosted->BindText("abc def").ok());
  ASSERT_TRUE(hosted->DefineRegions("y", RegionSet{{4, 12}, {20, 40}}).ok());
  server::Client client = Connect();
  server::Request request = MakeRequest("t", "y");
  request.limit = 10;
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok) << response->message;
  EXPECT_EQ(response->row_count, 2);
  EXPECT_EQ(response->rows,
            (std::vector<std::string>{"[4,12]  \"def\"", "[20,40]  \"\""}));
  ExpectStillServing();
}

TEST_F(QueryServiceTest, InstanceRouting) {
  StartService();
  auto engine2 = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(engine2.ok());
  ASSERT_TRUE(
      service_->AddInstance("corpus2", std::move(engine2).value()).ok());
  auto duplicate = QueryEngine::FromSgmlSource(kDoc);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(
      service_->AddInstance("corpus2", std::move(duplicate).value()).code(),
      StatusCode::kAlreadyExists);

  server::Client client = Connect();
  server::Request request = MakeRequest("t", "sec");
  request.instance = "corpus2";
  auto routed = client.Call(request);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_TRUE(routed->ok) << routed->message;

  request.instance = "nope";
  auto unknown = client.Call(request);
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_FALSE(unknown->ok);
  EXPECT_EQ(unknown->code, "NOT_FOUND");

  // With two instances hosted, the request must name one.
  request.instance.clear();
  auto ambiguous = client.Call(request);
  ASSERT_TRUE(ambiguous.ok()) << ambiguous.status();
  EXPECT_FALSE(ambiguous->ok);
  EXPECT_EQ(ambiguous->code, "INVALID_ARGUMENT");
}

TEST_F(QueryServiceTest, SingleInstanceNeedsNoName) {
  StartService();
  server::Client client = Connect();
  server::Request request = MakeRequest("t", "sec");
  request.instance.clear();
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok) << response->message;
  EXPECT_EQ(response->row_count, 2);
}

TEST_F(QueryServiceTest, ConcurrentTenantsAllServed) {
  StartService();
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 25;
  std::atomic<int> ok_count{0};
  std::atomic<int> transport_errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = server::Client::Connect("127.0.0.1", service_->port());
      if (!client.ok()) {
        transport_errors.fetch_add(kRequestsEach);
        return;
      }
      const std::string tenant = c % 2 == 0 ? "team-a" : "team-b";
      const char* queries[] = {"para within sec", "word \"alpha\"", "sec",
                               "word \"delta\" | word \"gamma\""};
      for (int i = 0; i < kRequestsEach; ++i) {
        server::Request request;
        request.tenant = tenant;
        request.instance = "corpus1";
        request.query = queries[(c + i) % 4];
        request.id = c * 1000 + i;
        auto response = client->Call(request);
        if (!response.ok()) {
          transport_errors.fetch_add(1);
          continue;
        }
        // Admission rejects are legal under load; wrong answers are not.
        if (response->ok && response->id == request.id) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GE(service_->requests_total(), kClients * kRequestsEach);
  EXPECT_GE(service_->connections_total(), kClients);
  ExpectStillServing();
}

TEST_F(QueryServiceTest, DefaultServiceRunsSixtyFourRequestsAtOnce) {
  StartService();
  safety::AdmissionController& admission = service_->admission();
  EXPECT_EQ(admission.options().capacity, 64);
  // Hold 63 slots, as long-running requests would: the 64th still runs.
  for (int i = 0; i < 63; ++i) {
    ASSERT_EQ(admission.Admit(1).outcome, safety::AdmitOutcome::kAdmitted);
  }
  server::Client client = Connect();
  auto response = client.Call(MakeRequest("t", "sec"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok) << response->message;
  for (int i = 0; i < 63; ++i) admission.Leave();
}

TEST_F(QueryServiceTest, FairShareRefusalReachesTheWire) {
  StartService();
  safety::TenantQuota quota;
  quota.max_concurrent = 1;
  service_->SetTenantQuota("capped", quota);
  // The tenant's one slot is taken (as by a long-running request).
  ASSERT_TRUE(service_->governor().Admit("capped").ok());
  obs::Counter* rejects = obs::Registry::Default().GetCounter(
      "regal_server_admission_rejects_total", {{"reason", "fair_share"}});
  const int64_t before = rejects->value();
  server::Client client = Connect();
  auto response = client.Call(MakeRequest("capped", "sec"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, "RESOURCE_EXHAUSTED");
  EXPECT_NE(response->message.find("fair share"), std::string::npos)
      << response->message;
  EXPECT_EQ(rejects->value(), before + 1);
  service_->governor().Release("capped");
  ExpectStillServing();
}

// regal_server_request_latency_ms times the service side of a request
// (admission, evaluation, row rendering), so one successful query adds
// more to its sum than the evaluation time the wire's elapsed_ms carries.
TEST_F(QueryServiceTest, RequestLatencyHistogramTimesTheServiceSide) {
  StartService();
  obs::Histogram* latency = obs::Registry::Default().GetHistogram(
      "regal_server_request_latency_ms");
  server::Client client = Connect();
  const int64_t count_before = latency->count();
  const double sum_before = latency->sum();
  auto response = client.Call(MakeRequest("t", "para within sec"));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok) << response->message;
  EXPECT_EQ(latency->count(), count_before + 1);
  // elapsed_ms crosses the wire with 9 significant digits; the margin
  // covers that rounding and sits far below the service's own microseconds.
  EXPECT_GT(latency->sum() - sum_before,
            response->elapsed_ms * (1 + 1e-6) + 1e-9);
}

TEST_F(QueryServiceTest, PerRequestDeadlineIsEnforced) {
  StartService();
  server::Client client = Connect();
  server::Request request = MakeRequest("t", "para within sec");
  request.deadline_ms = 1e-6;  // Expired by the first progress check.
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, "DEADLINE_EXCEEDED") << response->message;
  ExpectStillServing();
}

TEST_F(QueryServiceTest, TenantByteBackpressureReplacesResponse) {
  StartService();
  safety::TenantQuota quota;
  quota.max_inflight_response_bytes = 8;  // Smaller than any real response.
  service_->SetTenantQuota("throttled", quota);
  server::Client client = Connect();
  auto response = client.Call(MakeRequest("throttled", "para within sec"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, "RESOURCE_EXHAUSTED");
  EXPECT_NE(response->message.find("backpressure"), std::string::npos)
      << response->message;
  EXPECT_TRUE(response->rows.empty());
  // Other tenants are untouched, and the failed charge did not leak.
  EXPECT_EQ(service_->governor().inflight_response_bytes_total(), 0);
  ExpectStillServing();
}

// The SIGPIPE regression: a client that requests work and then slams the
// connection shut with an RST forces the server's send() into a dead
// socket. Without MSG_NOSIGNAL the default SIGPIPE disposition kills the
// whole process. Several rounds, because the race between the RST landing
// and the send starting does not always lose on the first try.
TEST_F(QueryServiceTest, ClientRstMidResponseDoesNotKillProcess) {
  StartService();
  for (int round = 0; round < 20; ++round) {
    auto chaos = server::Client::Connect("127.0.0.1", service_->port());
    ASSERT_TRUE(chaos.ok()) << chaos.status();
    server::Request request = MakeRequest("chaos", "para within sec");
    request.limit = 100;
    ASSERT_TRUE(chaos->SendRaw(
        server::EncodeFrame(server::RenderRequest(request))));
    chaos->Close(/*rst=*/true);
  }
  ExpectStillServing();
}

// The accept-loop regression's cousin: connections that are aborted right
// after the handshake (RST before the server even reads) must not end the
// accept loop.
TEST_F(QueryServiceTest, ImmediateDisconnectsDoNotKillAcceptLoop) {
  StartService();
  for (int round = 0; round < 50; ++round) {
    auto chaos = server::Client::Connect("127.0.0.1", service_->port());
    ASSERT_TRUE(chaos.ok()) << chaos.status();
    chaos->Close(/*rst=*/round % 2 == 0);
  }
  ExpectStillServing();
}

TEST_F(QueryServiceTest, TornFrameClosesOnlyThatConnection) {
  StartService();
  auto torn = Connect();
  // Announce 100 bytes, deliver 3, vanish.
  std::string partial = server::EncodeFrame(std::string(100, 'x'));
  partial.resize(server::kFrameHeaderBytes + 3);
  ASSERT_TRUE(torn.SendRaw(partial));
  torn.Close();
  ExpectStillServing();
}

TEST_F(QueryServiceTest, OversizedFrameIsRefusedWithAnError) {
  server::ServiceOptions options;
  options.max_frame_bytes = 256;
  StartService(std::move(options));
  server::Client client = Connect();
  ASSERT_TRUE(client.SendRaw(server::EncodeFrame(std::string(1000, ' '))));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, "INVALID_ARGUMENT");
  // The stream cannot be resynchronized, so the server must then close.
  auto after = client.ReadResponse();
  EXPECT_FALSE(after.ok());
  ExpectStillServing();
}

TEST_F(QueryServiceTest, MalformedPayloadKeepsConnectionUsable) {
  StartService();
  server::Client client = Connect();
  ASSERT_TRUE(client.SendRaw(server::EncodeFrame("this is not json")));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, "INVALID_ARGUMENT");
  // Framing was intact, so the same connection still works.
  auto good = client.Call(MakeRequest("t", "sec"));
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_TRUE(good->ok) << good->message;
}

TEST_F(QueryServiceTest, GarbageFrameFuzz) {
  StartService();
  Rng rng(0xbadc0deULL);
  for (int iter = 0; iter < 60; ++iter) {
    auto client = server::Client::Connect("127.0.0.1", service_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    size_t len = rng.Below(128);
    std::string payload;
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Below(256)));
    }
    // Half framed garbage, half raw garbage (which the server reads as an
    // absurd length prefix and refuses).
    client->SendRaw(iter % 2 == 0 ? server::EncodeFrame(payload) : payload);
    client->Close(/*rst=*/rng.Chance(0.5));
  }
  ExpectStillServing();
}

TEST_F(QueryServiceTest, StopDrainsAndRefusesNewWork) {
  StartService();
  server::Client client = Connect();
  auto before = client.Call(MakeRequest("t", "sec"));
  ASSERT_TRUE(before.ok()) << before.status();
  service_->Stop();
  EXPECT_TRUE(service_->stopping());
  // The drained connection is gone...
  auto after = client.Call(MakeRequest("t", "sec"));
  EXPECT_FALSE(after.ok());
  // ...and new connections are refused (or reset before a response).
  auto late = server::Client::Connect("127.0.0.1", service_->port());
  if (late.ok()) {
    EXPECT_FALSE(late->Call(MakeRequest("t", "sec")).ok());
  }
  // Stop is idempotent.
  service_->Stop();
}

TEST_F(QueryServiceTest, AdminEndpointShowsServiceAndTenantSections) {
  StartService();
  safety::TenantQuota quota;
  quota.max_concurrent = 3;
  service_->SetTenantQuota("team-a", quota);
  server::Client client = Connect();
  auto warm = client.Call(MakeRequest("team-a", "para within sec"));
  ASSERT_TRUE(warm.ok()) << warm.status();

  ASSERT_TRUE(service_->EnableAdminServer().ok());
  int port = service_->admin_server()->port();
  int status = 0;
  auto body = admin::HttpGet("127.0.0.1", port, "/statusz", &status);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(status, 200);
  for (const char* expected :
       {"[server]", "connections_total", "[tenants]", "team-a", "admitted=1",
        "[corpus1.catalog]", "[corpus1.cache]", "[corpus1.exec]", "[cpu]"}) {
    EXPECT_NE(body->find(expected), std::string::npos)
        << "missing " << expected << " in:\n" << *body;
  }
}

TEST_F(QueryServiceTest, EnableAdminServerIsExclusiveAndDisableIsIdempotent) {
  StartService();
  ASSERT_TRUE(service_->EnableAdminServer().ok());
  Status again = service_->EnableAdminServer();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  service_->DisableAdminServer();
  EXPECT_EQ(service_->admin_server(), nullptr);
  service_->DisableAdminServer();  // No-op.
  Status restarted = service_->EnableAdminServer();
  EXPECT_TRUE(restarted.ok()) << restarted;
  int status = 0;
  auto body = admin::HttpGet("127.0.0.1", service_->admin_server()->port(),
                             "/healthz", &status);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(status, 200);
}

}  // namespace
}  // namespace regal
