// Integration suite for the embedded admin endpoint (label `admin`): a real
// QueryEngine serves real HTTP on a loopback socket, and the tests scrape
// /metrics, /statusz and /tracez the way a Prometheus collector or an
// operator's curl would.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "admin/admin_server.h"
#include "json_checker.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "server/net.h"
#include "util/timer.h"

namespace regal {
namespace {

using testutil::ValidJson;

constexpr char kDoc[] =
    "<doc><sec><para>alpha beta</para><para>gamma</para></sec>"
    "<sec><para>delta epsilon</para></sec></doc>";

// Checks the Prometheus text exposition format line by line: comment lines
// must be well-formed HELP/TYPE, sample lines must be
// `name[{labels}] value`, and every sample's family must have been
// announced by a preceding # TYPE.
bool ValidPrometheus(const std::string& text, std::string* why) {
  std::set<std::string> typed_families;
  size_t start = 0;
  auto fail = [&](const std::string& line, const char* what) {
    *why = std::string(what) + ": " + line;
    return false;
  };
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      *why = "missing trailing newline";
      return false;
    }
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
        return fail(line, "unknown comment");
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        size_t name_end = line.find(' ', 7);
        if (name_end == std::string::npos) return fail(line, "bad TYPE");
        std::string kind = line.substr(name_end + 1);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "untyped") {
          return fail(line, "bad TYPE kind");
        }
        typed_families.insert(line.substr(7, name_end - 7));
      }
      continue;
    }
    // Sample line: name, optional {...} (quotes may hide '}'), space, value.
    size_t pos = 0;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_' || line[pos] == ':')) {
      ++pos;
    }
    if (pos == 0) return fail(line, "no metric name");
    std::string name = line.substr(0, pos);
    if (pos < line.size() && line[pos] == '{') {
      bool in_quotes = false;
      ++pos;
      while (pos < line.size()) {
        char c = line[pos];
        if (in_quotes) {
          if (c == '\\') ++pos;
          else if (c == '"') in_quotes = false;
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == '}') {
          break;
        }
        ++pos;
      }
      if (pos >= line.size()) return fail(line, "unterminated labels");
      ++pos;  // '}'
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail(line, "no sample value");
    }
    std::string value = line.substr(pos + 1);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      size_t parsed = 0;
      try {
        std::stod(value, &parsed);
      } catch (...) {
        return fail(line, "unparseable value");
      }
      if (parsed != value.size()) return fail(line, "trailing junk in value");
    }
    // Histogram series carry the family name plus a suffix.
    bool announced = false;
    for (const char* suffix : {"", "_bucket", "_sum", "_count"}) {
      std::string family = name;
      std::string s(suffix);
      if (!s.empty() && family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0) {
        family.resize(family.size() - s.size());
      }
      if (typed_families.count(family) > 0) {
        announced = true;
        break;
      }
    }
    if (!announced) return fail(line, "sample without # TYPE");
  }
  return true;
}

// One engine + admin server + private flight recorder per fixture, so tests
// never race each other's records through the process-wide default. The
// fixture owns the endpoint and registers the engine's sections on it, as
// any host of an engine does.
class AdminEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    quiet_log_ = std::make_unique<obs::EventLog>(
        std::make_shared<obs::CaptureSink>());
    obs::FlightRecorderOptions options;
    options.capacity = 64;
    // Threshold 0: every completed query counts as slow, so /tracez must
    // show all of them — the acceptance property under mixed traffic.
    options.slow_threshold_ms = 0;
    options.sample_period = 0;
    options.log = quiet_log_.get();
    recorder_ = std::make_unique<obs::FlightRecorder>(options);

    auto engine = QueryEngine::FromSgmlSource(kDoc);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::make_unique<QueryEngine>(std::move(engine).value());
    engine_->set_flight_recorder(recorder_.get());
    admin::AdminOptions admin_options;
    admin_options.recorder = recorder_.get();
    auto started = admin::AdminServer::Start(admin_options);
    ASSERT_TRUE(started.ok()) << started.status();
    admin_ = std::move(started).value();
    engine_->RegisterStatusSections(admin_.get());
    QueryEngine::RegisterCpuStatusSection(admin_.get());
    port_ = admin_->port();
    ASSERT_GT(port_, 0);
  }

  std::string Get(const std::string& path, int* status = nullptr,
                  std::string* content_type = nullptr) {
    auto body = admin::HttpGet("127.0.0.1", port_, path, status, content_type);
    EXPECT_TRUE(body.ok()) << body.status();
    return body.ok() ? *body : std::string();
  }

  // A probe with an orchestrator's patience: a connection storm may leave
  // the endpoint momentarily at its connection cap (dropped probes there
  // are fine — kubelet retries), but it must answer again within a beat.
  std::string GetWithRetry(const std::string& path, int* status) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto body = admin::HttpGet("127.0.0.1", port_, path, status);
      if (body.ok()) return *body;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "endpoint never recovered serving " << path;
    return std::string();
  }

  // Mixed traffic: plain runs, a profiled run, and a failing query.
  // Returns each executed expression's canonical rendering — the string the
  // flight recorder stores.
  std::vector<std::string> RunMixedTraffic() {
    std::vector<std::string> executed;
    for (const char* q :
         {"para within sec", "word \"alpha\"", "sec",
          "explain analyze para within sec",
          "word \"delta\" | word \"gamma\""}) {
      auto answer = engine_->Run(q);
      EXPECT_TRUE(answer.ok()) << q << ": " << answer.status();
      if (answer.ok()) executed.push_back(answer->executed->ToString());
    }
    auto failed = engine_->Run("no_such_region");
    EXPECT_FALSE(failed.ok());
    return executed;
  }

  std::unique_ptr<obs::EventLog> quiet_log_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<QueryEngine> engine_;
  // Declared after the engine so it stops before the engine it shows.
  std::unique_ptr<admin::AdminServer> admin_;
  int port_ = 0;
};

TEST_F(AdminEndpointTest, HealthzAnswersOk) {
  int status = 0;
  std::string content_type;
  std::string body = Get("/healthz", &status, &content_type);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  EXPECT_NE(content_type.find("text/plain"), std::string::npos);
}

TEST_F(AdminEndpointTest, MetricsIsValidPrometheusExposition) {
  RunMixedTraffic();
  int status = 0;
  std::string content_type;
  std::string body = Get("/metrics", &status, &content_type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(content_type.find("version=0.0.4"), std::string::npos)
      << content_type;
  std::string why;
  EXPECT_TRUE(ValidPrometheus(body, &why)) << why;
  EXPECT_NE(body.find("# TYPE regal_queries_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("regal_query_latency_ms_bucket"), std::string::npos);
  EXPECT_NE(body.find("regal_engine_inflight_queries 0"), std::string::npos);
  EXPECT_NE(body.find("regal_cache_hit_ratio"), std::string::npos);

  int json_status = 0;
  std::string json_type;
  std::string json = Get("/metrics?format=json", &json_status, &json_type);
  EXPECT_EQ(json_status, 200);
  EXPECT_NE(json_type.find("application/json"), std::string::npos);
  EXPECT_TRUE(ValidJson(json)) << json.substr(0, 400);
}

TEST_F(AdminEndpointTest, StatuszShowsEngineSections) {
  RunMixedTraffic();
  int status = 0;
  std::string body = Get("/statusz", &status);
  EXPECT_EQ(status, 200);
  for (const char* expected :
       {"uptime_s", "catalog", "instance_id", "epoch", "regions", "cache",
        "max_bytes", "exec", "threads", "telemetry", "recorder_entries",
        "last_query_id"}) {
    EXPECT_NE(body.find(expected), std::string::npos)
        << "missing " << expected << " in:\n" << body;
  }
  std::string json = Get("/statusz?format=json", &status);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(ValidJson(json)) << json.substr(0, 400);
}

TEST_F(AdminEndpointTest, TracezShowsEverySlowQuery) {
  std::vector<std::string> executed = RunMixedTraffic();
  int status = 0;
  std::string body = Get("/tracez", &status);
  EXPECT_EQ(status, 200);
  // Threshold 0 makes every query slow, so every executed query — and the
  // failing one — must have a record, newest first, with its plan rendered.
  for (const std::string& q : executed) {
    EXPECT_NE(body.find(q), std::string::npos)
        << "missing query " << q << " in:\n" << body;
  }
  EXPECT_NE(body.find("not_found"), std::string::npos) << body;
  ASSERT_EQ(recorder_->entries(), executed.size() + 1);
  // Each record's header line carries its id; ids were assigned 1..N.
  for (size_t id = 1; id <= executed.size() + 1; ++id) {
    EXPECT_NE(body.find("#" + std::to_string(id) + " "), std::string::npos)
        << "missing record id " << id << " in:\n" << body;
  }

  std::string json = Get("/tracez?format=json", &status);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(ValidJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
}

TEST_F(AdminEndpointTest, SampledQueriesCarryLiveTraces) {
  recorder_->set_slow_threshold_ms(1e9);  // Nothing is slow now.
  recorder_->set_sample_period(1);        // ... but everything is sampled.
  auto answer = engine_->Run("para within sec");
  ASSERT_TRUE(answer.ok());
  std::vector<obs::QueryRecord> records = recorder_->Snapshot();
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(records[0].sampled);
  EXPECT_TRUE(records[0].traced);  // Pre-execution sampling enabled a trace.
  EXPECT_EQ(records[0].plan.name, "within");
  EXPECT_GT(records[0].plan.rows_out, 0);
}

TEST_F(AdminEndpointTest, TelemetryOffRecordsNothing) {
  engine_->set_telemetry_enabled(false);
  ASSERT_TRUE(engine_->Run("para within sec").ok());
  EXPECT_FALSE(engine_->Run("no_such_region").ok());
  EXPECT_EQ(recorder_->entries(), 0u);
  EXPECT_EQ(recorder_->last_query_id(), 0u);
}

TEST_F(AdminEndpointTest, UnknownPathsAnswer404) {
  int status = 0;
  Get("/nope", &status);
  EXPECT_EQ(status, 404);
  std::string index = Get("/", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(index.find("/metrics"), std::string::npos);
}

TEST(AdminServerTest, RejectsUnbindableAddress) {
  admin::AdminOptions options;
  options.bind_address = "203.0.113.1";  // TEST-NET: never local.
  auto server = admin::AdminServer::Start(options);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Socket abuse. These are the regressions: clients that vanish
// mid-response (SIGPIPE), clients that stall without sending (wedging a
// single-threaded server), and requests of arbitrary shape.

// A raw TCP helper for abusing the HTTP surface: connects, sends whatever
// bytes it is told, and can close with an RST (SO_LINGER zero) instead of
// a FIN — the packet sequence that turns the server's next send() into
// EPIPE/ECONNRESET.
class RawTcp {
 public:
  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)) == 0;
  }
  bool Send(const std::string& bytes) {
    return net::SendAll(fd_, bytes.data(), bytes.size());
  }
  std::string ReadAll() {
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }
  void Close(bool rst = false) {
    if (fd_ < 0) return;
    if (rst) {
      struct linger hard = {1, 0};
      setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    }
    close(fd_);
    fd_ = -1;
  }
  ~RawTcp() { Close(); }

 private:
  int fd_ = -1;
};

// The SIGPIPE regression: request the largest response the endpoint
// serves, then RST before reading it. The server's send() lands on a dead
// socket; without MSG_NOSIGNAL the default disposition kills the process
// and every test after this one.
TEST_F(AdminEndpointTest, ClientRstMidResponseDoesNotKillProcess) {
  RunMixedTraffic();  // Fatten /metrics and /tracez.
  for (int round = 0; round < 20; ++round) {
    RawTcp chaos;
    ASSERT_TRUE(chaos.Connect(port_));
    ASSERT_TRUE(chaos.Send("GET /metrics HTTP/1.0\r\n\r\n"));
    chaos.Close(/*rst=*/true);
  }
  int status = 0;
  std::string body = GetWithRetry("/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
}

// The accept-loop regression's cousin: handshakes aborted before the
// server reads anything must not end the accept loop.
TEST_F(AdminEndpointTest, ImmediateDisconnectsDoNotKillAcceptLoop) {
  for (int round = 0; round < 50; ++round) {
    RawTcp chaos;
    ASSERT_TRUE(chaos.Connect(port_));
    chaos.Close(/*rst=*/round % 2 == 0);
  }
  int status = 0;
  EXPECT_EQ(GetWithRetry("/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
}

// A stalled client (connected, sends nothing) used to wedge the
// single-threaded serve loop for a full socket timeout; /healthz would
// miss its probe deadline and the orchestrator would restart a healthy
// process. With per-connection handler threads the probe must answer
// while the staller is still connected.
TEST_F(AdminEndpointTest, SlowClientDoesNotBlockHealthz) {
  std::vector<std::unique_ptr<RawTcp>> stallers;
  for (int i = 0; i < 4; ++i) {
    auto staller = std::make_unique<RawTcp>();
    ASSERT_TRUE(staller->Connect(port_));
    ASSERT_TRUE(staller->Send("GET /healthz HT"));  // ... and nothing more.
    stallers.push_back(std::move(staller));
  }
  Timer timer;
  int status = 0;
  std::string body = Get("/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  // Well under the 5 s socket timeout a wedged loop would have cost.
  EXPECT_LT(timer.Millis(), 2000.0);
}

TEST_F(AdminEndpointTest, MalformedAndOversizedRequestsAnswered) {
  {
    RawTcp raw;
    ASSERT_TRUE(raw.Connect(port_));
    ASSERT_TRUE(raw.Send("complete nonsense\r\n\r\n"));
    std::string reply = raw.ReadAll();
    EXPECT_NE(reply.find("405"), std::string::npos) << reply;
  }
  {
    RawTcp raw;
    ASSERT_TRUE(raw.Connect(port_));
    ASSERT_TRUE(raw.Send("POST /metrics HTTP/1.0\r\n\r\n"));
    std::string reply = raw.ReadAll();
    EXPECT_NE(reply.find("405"), std::string::npos) << reply;
  }
  {
    // A request line that never ends: the 8 KiB cap stops the read, the
    // parse fails, the connection answers 405 instead of hanging.
    RawTcp raw;
    ASSERT_TRUE(raw.Connect(port_));
    ASSERT_TRUE(raw.Send("GET /" + std::string(16384, 'a')));
    raw.Close(/*rst=*/true);
  }
  int status = 0;
  EXPECT_EQ(GetWithRetry("/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
}

// The `format=json` parameter must be matched exactly — the old substring
// search also fired on `notformat=json` (and any other key with that
// suffix), silently switching a scrape's content type.
TEST_F(AdminEndpointTest, FormatParamIsMatchedExactlyNotBySubstring) {
  int status = 0;
  std::string content_type;
  Get("/metrics?notformat=json", &status, &content_type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(content_type.find("text/plain"), std::string::npos)
      << content_type;
  Get("/metrics?format=jsonx", &status, &content_type);
  EXPECT_NE(content_type.find("text/plain"), std::string::npos)
      << content_type;
  Get("/metrics?a=b&format=json", &status, &content_type);
  EXPECT_NE(content_type.find("application/json"), std::string::npos)
      << content_type;
}

TEST(IsoTimeTest, HandlesNegativeTimestamps) {
  EXPECT_EQ(admin::IsoTime(0), "1970-01-01T00:00:00.000Z");
  EXPECT_EQ(admin::IsoTime(1500), "1970-01-01T00:00:01.500Z");
  // Truncating division paired second 0 with millisecond -1 here.
  EXPECT_EQ(admin::IsoTime(-1), "1969-12-31T23:59:59.999Z");
  EXPECT_EQ(admin::IsoTime(-1000), "1969-12-31T23:59:59.000Z");
  EXPECT_EQ(admin::IsoTime(-86400000 + 250), "1969-12-31T00:00:00.250Z");
}

// A scripted fake HTTP server: accepts one connection, sends a canned
// response, closes. Exercises HttpGet's response parsing against inputs
// the real AdminServer would never produce.
std::string GetFromCannedServer(const std::string& canned, int* status,
                                std::string* content_type, Status* out) {
  auto listener = net::Listener::Open({});
  EXPECT_TRUE(listener.ok()) << listener.status();
  std::atomic<bool> stop{false};
  std::thread fake([&] {
    int fd = listener->AcceptOne(stop, nullptr);
    if (fd < 0) return;
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }
    net::SendAll(fd, canned.data(), canned.size());
    close(fd);
  });
  auto body = admin::HttpGet("127.0.0.1", listener->port(), "/", status,
                             content_type);
  stop.store(true);
  listener->Shutdown();
  fake.join();
  *out = body.status();
  return body.ok() ? *body : std::string();
}

TEST(HttpGetTest, StatusCodeIsRangeChecked) {
  int status = 0;
  std::string content_type;
  Status result;
  // atoi would have yielded 0 for garbage and huge nonsense for overlong
  // digit runs; both must now be malformed-response errors.
  for (const char* bad_line :
       {"HTTP/1.0 abc Error\r\n\r\nbody", "HTTP/1.0 99 Too Low\r\n\r\nbody",
        "HTTP/1.0 600 Too High\r\n\r\nbody",
        "HTTP/1.0 2000 Overlong\r\n\r\nbody", "HTTP/1.0 \r\n\r\nbody"}) {
    GetFromCannedServer(bad_line, &status, &content_type, &result);
    EXPECT_FALSE(result.ok()) << bad_line;
    EXPECT_EQ(result.code(), StatusCode::kInvalidArgument) << bad_line;
  }
  std::string body = GetFromCannedServer(
      "HTTP/1.0 418 I'm a teapot\r\n\r\nshort and stout", &status,
      &content_type, &result);
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(status, 418);
  EXPECT_EQ(body, "short and stout");
}

TEST(HttpGetTest, ContentTypeHeaderIsCaseInsensitive) {
  int status = 0;
  std::string content_type;
  Status result;
  GetFromCannedServer(
      "HTTP/1.0 200 OK\r\ncontent-type: application/json\r\n\r\n{}", &status,
      &content_type, &result);
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(content_type, "application/json");
  GetFromCannedServer(
      "HTTP/1.0 200 OK\r\nCONTENT-TYPE:  text/html\r\n\r\nx", &status,
      &content_type, &result);
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(content_type, "text/html");
  // A header that merely *contains* the name must not match.
  GetFromCannedServer(
      "HTTP/1.0 200 OK\r\nX-Not-Content-Type: nope\r\n\r\nx", &status,
      &content_type, &result);
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(content_type, "");
}

}  // namespace
}  // namespace regal
