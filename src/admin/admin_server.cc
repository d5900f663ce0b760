#include "admin/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "server/net.h"

namespace regal {
namespace admin {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr int kSocketTimeoutMs = 5000;
constexpr int kMaxAdminConnections = 8;
constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kTextContentType = "text/plain; charset=utf-8";
constexpr const char* kJsonContentType = "application/json";

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

void WriteResponse(int fd, int status, const std::string& content_type,
                   const std::string& body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + ' ' +
                     ReasonPhrase(status) + "\r\nContent-Type: " +
                     content_type + "\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (net::SendAll(fd, head.data(), head.size())) {
    net::SendAll(fd, body.data(), body.size());
  }
}

/// True when the query string carries `key=value` as an exact parameter —
/// a substring search would also match "notformat=json".
bool QueryParamIs(const std::string& query, const std::string& key,
                  const std::string& value) {
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    size_t eq = query.find('=', start);
    if (eq != std::string::npos && eq < end &&
        query.compare(start, eq - start, key) == 0 &&
        query.compare(eq + 1, end - eq - 1, value) == 0 &&
        end - eq - 1 == value.size()) {
      return true;
    }
    start = end + 1;
  }
  return false;
}

}  // namespace

std::string IsoTime(int64_t ts_ms) {
  // Floored division: for negative timestamps (pre-epoch) truncation would
  // pair the wrong second with a negative millisecond remainder.
  int64_t secs = ts_ms / 1000;
  int64_t ms = ts_ms % 1000;
  if (ms < 0) {
    ms += 1000;
    --secs;
  }
  std::time_t tsecs = static_cast<std::time_t>(secs);
  struct tm parts;
  gmtime_r(&tsecs, &parts);
  char buf[40];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &parts);
  char out[48];
  std::snprintf(out, sizeof(out), "%s.%03dZ", buf, static_cast<int>(ms));
  return out;
}

AdminServer::AdminServer(AdminOptions options) : options_(std::move(options)) {
  if (options_.registry == nullptr) options_.registry = &obs::Registry::Default();
  if (options_.recorder == nullptr) {
    options_.recorder = &obs::FlightRecorder::Default();
  }
}

Result<std::unique_ptr<AdminServer>> AdminServer::Start(AdminOptions options) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<AdminServer> server(new AdminServer(std::move(options)));
  net::ListenerOptions listen_options;
  listen_options.bind_address = server->options_.bind_address;
  listen_options.port = server->options_.port;
  listen_options.backlog = 16;
  auto listener = net::Listener::Open(listen_options);
  if (!listener.ok()) {
    return Status(listener.status().code(),
                  "admin: " + listener.status().message());
  }
  server->listener_ = std::move(listener).value();
  server->accept_errors_ = obs::Registry::Default().GetCounter(
      "regal_admin_accept_errors_total");
  server->thread_ = std::thread([raw = server.get()] { raw->Serve(); });
  obs::EventLog::Default().Log(
      obs::Severity::kInfo, "admin", "admin endpoint listening", 0,
      {{"address", server->options_.bind_address},
       {"port", std::to_string(server->port())}});
  return server;
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Stop() {
  if (!listener_.valid()) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Wakes the blocked accept; Linux fails it with EINVAL once shut down.
  listener_.Shutdown();
  if (thread_.joinable()) thread_.join();
  conns_.DrainAndJoin(0);
  listener_.Close();
}

void AdminServer::AddStatusSection(std::string name, StatusSource source) {
  std::lock_guard<std::mutex> lock(sections_mu_);
  sections_.emplace_back(std::move(name), std::move(source));
}

void AdminServer::Serve() {
  for (;;) {
    int fd = listener_.AcceptOne(stopping_, accept_errors_);
    if (fd < 0) break;  // Only a stop request ends the loop.
    net::SetSocketTimeouts(fd, kSocketTimeoutMs);
    if (!conns_.Spawn(
            fd, [this](int conn_fd) { HandleConnection(conn_fd); },
            kMaxAdminConnections)) {
      // Over the cap: Spawn already closed the fd. A probe retrying in a
      // few seconds beats queueing behind slow scrapes.
      continue;
    }
  }
}

void AdminServer::HandleConnection(int fd) {
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) line_end = request.size();
  std::string line = request.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    WriteResponse(fd, 405, kTextContentType, "malformed request\n");
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    WriteResponse(fd, 405, kTextContentType, "only GET is served here\n");
    return;
  }
  std::string body;
  std::string content_type = kTextContentType;
  int status = Route(target, &body, &content_type);
  WriteResponse(fd, status, content_type, body);
}

int AdminServer::Route(const std::string& target, std::string* body,
                       std::string* content_type) {
  std::string path = target;
  std::string query;
  size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }
  const bool json = QueryParamIs(query, "format", "json");
  if (path == "/healthz") {
    *body = "ok\n";
    return 200;
  }
  if (path == "/metrics") {
    *body = MetricsBody(json);
    *content_type = json ? kJsonContentType : kPrometheusContentType;
    return 200;
  }
  if (path == "/statusz") {
    *body = StatuszBody(json);
    if (json) *content_type = kJsonContentType;
    return 200;
  }
  if (path == "/tracez") {
    *body = TracezBody(json);
    if (json) *content_type = kJsonContentType;
    return 200;
  }
  if (path == "/") {
    *body =
        "regal admin endpoint\n"
        "  /healthz  liveness\n"
        "  /metrics  Prometheus exposition (?format=json)\n"
        "  /statusz  process + subsystem status (?format=json)\n"
        "  /tracez   flight-recorder entries (?format=json)\n";
    return 200;
  }
  *body = "not found\n";
  return 404;
}

std::string AdminServer::MetricsBody(bool json) const {
  std::vector<obs::MetricSnapshot> snapshot = options_.registry->Snapshot();
  return json ? obs::MetricsToJson(snapshot)
              : obs::MetricsToPrometheus(snapshot);
}

std::string AdminServer::StatuszBody(bool json) const {
  std::vector<std::pair<std::string, StatusSource>> sections;
  {
    std::lock_guard<std::mutex> lock(sections_mu_);
    sections = sections_;
  }
  const double uptime_s = uptime_.Seconds();
  const int64_t pid = static_cast<int64_t>(getpid());
  if (json) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("server").String("regal-admin");
    w.Key("uptime_s").Double(uptime_s);
    w.Key("pid").Int(pid);
    w.Key("compiler").String(__VERSION__);
    w.Key("sections").BeginObject();
    for (const auto& [name, source] : sections) {
      w.Key(name).BeginObject();
      for (const auto& [key, value] : source()) w.Key(key).String(value);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.Take();
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", uptime_s);
  std::string out = "regal admin server\n";
  out += "uptime_s: " + std::string(buf) + "\n";
  out += "pid: " + std::to_string(pid) + "\n";
  out += "compiler: " __VERSION__ "\n";
  for (const auto& [name, source] : sections) {
    out += "\n[" + name + "]\n";
    for (const auto& [key, value] : source()) {
      out += key + ": " + value + "\n";
    }
  }
  return out;
}

std::string AdminServer::TracezBody(bool json) const {
  std::vector<obs::QueryRecord> records = options_.recorder->Snapshot();
  if (json) {
    std::string out = "{\"records\":[";
    for (size_t i = 0; i < records.size(); ++i) {
      if (i > 0) out += ',';
      out += records[i].Json();
    }
    out += "]}";
    return out;
  }
  std::string out = "flight recorder: " + std::to_string(records.size()) +
                    " records (newest first), slow threshold " +
                    std::to_string(options_.recorder->slow_threshold_ms()) +
                    " ms\n";
  for (const obs::QueryRecord& record : records) {
    char elapsed[32];
    std::snprintf(elapsed, sizeof(elapsed), "%.3f", record.elapsed_ms);
    out += "\n#" + std::to_string(record.query_id) + ' ' +
           IsoTime(record.ts_ms) + ' ' + record.status_code;
    if (record.slow) out += " slow";
    if (record.sampled) out += " sampled";
    out += ' ' + std::string(elapsed) +
           " ms rows=" + std::to_string(record.rows_out) + "  " +
           record.query + '\n';
    if (!record.ok && !record.status.empty()) {
      out += "  status: " + record.status + '\n';
    }
    std::string tree = obs::FormatSpanTree(record.plan);
    size_t start = 0;
    while (start < tree.size()) {
      size_t end = tree.find('\n', start);
      if (end == std::string::npos) end = tree.size();
      out += "  " + tree.substr(start, end - start) + '\n';
      start = end + 1;
    }
  }
  return out;
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path, int* status_code,
                            std::string* content_type) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("http: socket() failed: ") +
                            std::strerror(errno));
  }
  net::SetSocketTimeouts(fd, kSocketTimeoutMs);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("http: bad host '" + host +
                                   "' (IPv4 literals only)");
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal("http: cannot connect to " + host + ":" +
                                     std::to_string(port) + ": " +
                                     std::strerror(errno));
    close(fd);
    return status;
  }
  std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  if (!net::SendAll(fd, request.data(), request.size())) {
    close(fd);
    return Status::Internal("http: send failed");
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::InvalidArgument("http: malformed response (no header end)");
  }
  std::string headers = response.substr(0, header_end);
  size_t line_end = headers.find("\r\n");
  std::string status_line =
      headers.substr(0, line_end == std::string::npos ? headers.size()
                                                      : line_end);
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos || sp + 3 >= status_line.size()) {
    return Status::InvalidArgument("http: malformed status line");
  }
  // An HTTP status is exactly three digits in [100, 599]; atoi would
  // happily accept "abc" as 0 or "99999" as nonsense.
  int parsed_status = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    char c = status_line[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("http: malformed status code in '" +
                                     status_line + "'");
    }
    parsed_status = parsed_status * 10 + (c - '0');
  }
  if (sp + 4 < status_line.size() && status_line[sp + 4] != ' ') {
    return Status::InvalidArgument("http: malformed status code in '" +
                                   status_line + "'");
  }
  if (parsed_status < 100 || parsed_status > 599) {
    return Status::InvalidArgument("http: status code " +
                                   std::to_string(parsed_status) +
                                   " out of range");
  }
  if (status_code != nullptr) *status_code = parsed_status;
  if (content_type != nullptr) {
    content_type->clear();
    // Header names are case-insensitive (RFC 9110): scan line by line
    // instead of a case-sensitive substring search.
    size_t pos = headers.find("\r\n");
    while (pos != std::string::npos && pos + 2 < headers.size()) {
      size_t start = pos + 2;
      size_t end = headers.find("\r\n", start);
      if (end == std::string::npos) end = headers.size();
      size_t colon = headers.find(':', start);
      if (colon != std::string::npos && colon < end) {
        std::string name = headers.substr(start, colon - start);
        bool match = name.size() == 12;
        static const char* kLower = "content-type";
        for (size_t i = 0; match && i < name.size(); ++i) {
          char c = name[i];
          if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
          match = c == kLower[i];
        }
        if (match) {
          std::string value = headers.substr(colon + 1, end - colon - 1);
          size_t first = value.find_first_not_of(" \t");
          *content_type = first == std::string::npos ? "" : value.substr(first);
          break;
        }
      }
      pos = end == headers.size() ? std::string::npos : end;
    }
  }
  return response.substr(header_end + 4);
}

}  // namespace admin
}  // namespace regal
