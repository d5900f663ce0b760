#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "server/net.h"
#include "util/timer.h"

namespace regal {
namespace server {

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      max_response_bytes_(other.max_response_bytes_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    max_response_bytes_ = other.max_response_bytes_;
  }
  return *this;
}

Result<Client> Client::Connect(const std::string& host, int port,
                               int timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("client: socket() failed: ") +
                            std::strerror(errno));
  }
  net::SetSocketTimeouts(fd, timeout_ms);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("client: bad host '" + host +
                                   "' (IPv4 literals only)");
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal("client: cannot connect to " + host +
                                     ":" + std::to_string(port) + ": " +
                                     std::strerror(errno));
    close(fd);
    return status;
  }
  Client client;
  client.fd_ = fd;
  return client;
}

Result<Response> Client::Call(const Request& request) {
  if (!SendRaw(EncodeFrame(RenderRequest(request)))) {
    return Status::Internal(std::string("client: send failed: ") +
                            std::strerror(errno));
  }
  return ReadResponse();
}

bool Client::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return false;
  return net::SendAll(fd_, bytes);
}

Result<Response> Client::ReadResponse() {
  if (fd_ < 0) return Status::Internal("client: not connected");
  std::string payload;
  switch (ReadFrame(fd_, max_response_bytes_, &payload)) {
    case FrameRead::kOk:
      return ParseResponse(payload);
    case FrameRead::kClosed:
      return Status::Internal("client: server closed connection");
    case FrameRead::kTimeout:
    case FrameRead::kExpired:
      return Status::DeadlineExceeded("client: response timed out");
    case FrameRead::kTorn:
      return Status::Internal("client: connection torn mid-response");
    case FrameRead::kOversized:
      return Status::Internal("client: oversized response frame");
  }
  return Status::Internal("client: unreachable");
}

void Client::Close(bool rst) {
  if (fd_ < 0) return;
  if (rst) {
    // Zero-timeout linger: close() sends RST, discarding queued data — the
    // abrupt-disconnect behavior the SIGPIPE regression tests need.
    struct linger hard = {1, 0};
    setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
  close(fd_);
  fd_ = -1;
}

ResilientClient::ResilientClient(std::string host, int port,
                                 ResilientClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      jitter_(options_.jitter_seed),
      budget_(std::make_unique<RetryBudget>(options_.budget)),
      latency_(std::make_unique<LatencyTracker>()),
      breaker_(BreakerForEndpoint(host_ + ":" + std::to_string(port),
                                  options_.breaker)) {}

Result<ResilientClient> ResilientClient::Connect(
    const std::string& host, int port, ResilientClientOptions options) {
  ResilientClient client(host, port, std::move(options));
  REGAL_RETURN_NOT_OK(client.EnsureConnected());
  return client;
}

Status ResilientClient::EnsureConnected() {
  if (client_.connected()) return Status::OK();
  Result<Client> fresh = Client::Connect(host_, port_, options_.timeout_ms);
  if (!fresh.ok()) return fresh.status();
  client_ = std::move(fresh).value();
  if (ever_connected_) ++stats_.reconnects;
  ever_connected_ = true;
  return Status::OK();
}

void ResilientClient::Sleep(double ms) {
  if (options_.sleeper) {
    options_.sleeper(ms);
    return;
  }
  if (ms <= 0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(std::min(ms, 10000.0)));
}

Result<Response> ResilientClient::Call(const Request& request,
                                       bool idempotent) {
  budget_->OnRequest();
  Status last = Status::Internal("resilient client: no attempt made");
  double hint_ms = 0;
  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      // Every retry spends a budget token first: when the bucket is dry
      // the client gives up *immediately* — a retry storm against a
      // struggling service is precisely the amplification this prevents.
      if (!budget_->TrySpend()) {
        ++stats_.budget_denied;
        return Status(last.code(),
                      last.message() + " (retry budget exhausted)");
      }
      ++stats_.retries;
      double delay = options_.backoff.DelayMs(attempt - 1, &jitter_);
      // The server's hint is a lower bound, never a shortcut: jitter
      // still applies on top via max(), so hinted clients don't return
      // in lockstep.
      if (hint_ms > delay) delay = hint_ms;
      Sleep(delay);
    }
    hint_ms = 0;

    if (!breaker_->Allow()) {
      ++stats_.breaker_denied;
      last = Status::Overloaded("resilient client: circuit breaker open for " +
                                host_ + ":" + std::to_string(port_));
      continue;  // Back off and re-check; the open window may lapse.
    }
    Status connected = EnsureConnected();
    if (!connected.ok()) {
      breaker_->RecordFailure();
      last = connected;
      continue;  // Nothing was sent: replayable regardless of idempotence.
    }

    const bool hedgeable =
        options_.enable_hedging && idempotent &&
        latency_->count() >= options_.hedge_warmup;
    Timer timer;
    Result<Response> response =
        hedgeable ? HedgedCall(request) : client_.Call(request);
    ++stats_.attempts;
    if (!response.ok()) {
      // Transport failure (EPIPE/ECONNRESET, torn response, timeout).
      // Close so the next attempt reconnects on a fresh socket.
      breaker_->RecordFailure();
      client_.Close();
      last = response.status();
      if (!idempotent) {
        // The request may have executed before the connection died;
        // replaying could double its effect. The caller decides.
        return last;
      }
      continue;
    }
    breaker_->RecordSuccess();
    latency_->Record(timer.Millis());
    if (!response->ok && response->code == "OVERLOADED") {
      // Typed shed: the server refused before executing, so replay is
      // always safe — and it told us when to come back.
      ++stats_.overloaded;
      hint_ms = response->retry_after_ms;
      last = Status::Overloaded(response->message);
      continue;
    }
    if (!response->ok && response->code == "RESOURCE_EXHAUSTED") {
      // Quota/backpressure verdicts are retryable by design.
      hint_ms = response->retry_after_ms;
      last = Status::ResourceExhausted(response->message);
      continue;
    }
    // A well-formed reply — success or a non-retryable application error
    // (bad query, unknown instance) the caller must see as-is.
    return response;
  }
  return last;
}

Result<Response> ResilientClient::HedgedCall(const Request& request) {
  const std::string frame = EncodeFrame(RenderRequest(request));
  if (!client_.SendRaw(frame)) {
    return Status::Internal(std::string("client: send failed: ") +
                            std::strerror(errno));
  }
  const double hedge_delay =
      std::max(latency_->Percentile(0.99), options_.hedge_min_ms);
  struct pollfd primary;
  primary.fd = client_.fd();
  primary.events = POLLIN;
  primary.revents = 0;
  int ready = poll(&primary, 1, static_cast<int>(std::ceil(hedge_delay)));
  if (ready != 0) {
    // Answered within the hedge delay (or poll errored — fall through to
    // the blocking read, which reports the real failure).
    return client_.ReadResponse();
  }
  // Slower than p99: fire the duplicate on a fresh connection and race
  // them. Hedging is bounded to idempotent requests by the caller, and to
  // ~1% of traffic by the p99 trigger.
  ++stats_.hedges;
  Result<Client> hedge = Client::Connect(host_, port_, options_.timeout_ms);
  if (!hedge.ok() || !hedge->SendRaw(frame)) {
    // Could not hedge (endpoint saturated?) — just wait for the primary.
    return client_.ReadResponse();
  }
  struct pollfd race[2];
  race[0].fd = client_.fd();
  race[0].events = POLLIN;
  race[0].revents = 0;
  race[1].fd = hedge->fd();
  race[1].events = POLLIN;
  race[1].revents = 0;
  ready = poll(race, 2, options_.timeout_ms);
  if (ready <= 0) {
    hedge->Close();
    return Status::DeadlineExceeded("client: hedged request timed out");
  }
  if ((race[0].revents & POLLIN) != 0) {
    // Primary got there first after all; the loser connection is closed
    // unread (the server sees the EPIPE and moves on).
    hedge->Close();
    return client_.ReadResponse();
  }
  if ((race[1].revents & POLLIN) != 0) {
    ++stats_.hedge_wins;
    client_.Close();
    client_ = std::move(hedge).value();
    return client_.ReadResponse();
  }
  // Only error events: let the primary's read surface the failure.
  hedge->Close();
  return client_.ReadResponse();
}

}  // namespace server
}  // namespace regal
