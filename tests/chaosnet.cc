#include "chaosnet.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "safety/failpoint.h"

namespace regal {
namespace server {

namespace {

/// What a connection has been sentenced to at accept time.
enum class Fault { kNone, kRst, kTorn, kFreeze, kTrickle };

Fault PickFault() {
  // Precedence matters only when several failpoints are armed at once;
  // rst > torn > freeze > trickle mirrors decreasing severity.
  if (safety::FailpointFires("chaos.net.rst")) return Fault::kRst;
  if (safety::FailpointFires("chaos.net.torn")) return Fault::kTorn;
  if (safety::FailpointFires("chaos.net.freeze")) return Fault::kFreeze;
  if (safety::FailpointFires("chaos.net.trickle")) return Fault::kTrickle;
  return Fault::kNone;
}

void SetSockBuf(int fd, int bytes) {
  if (bytes <= 0) return;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

void LingerRst(int fd) {
  // Zero-timeout linger: close() becomes RST, discarding queued data.
  struct linger hard = {1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Handler ↔ downstream-pump coordination for one proxied connection.
/// Lives on the handler's stack; the handler joins the pump before
/// returning, so raw pointers into it are safe.
struct ConnState {
  std::atomic<bool> stop{false};
  std::atomic<bool> frozen{false};
};

}  // namespace

ChaosNet::ChaosNet(ChaosOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<ChaosNet>> ChaosNet::Start(ChaosOptions options) {
  if (options.upstream_port <= 0) {
    return Status::InvalidArgument("chaosnet: upstream_port is required");
  }
  std::unique_ptr<ChaosNet> chaos(new ChaosNet(std::move(options)));
  net::ListenerOptions listen;
  listen.bind_address = chaos->options_.listen_address;
  Result<net::Listener> listener = net::Listener::Open(listen);
  if (!listener.ok()) return listener.status();
  chaos->listener_ = std::move(listener).value();
  chaos->accept_thread_ = std::thread([raw = chaos.get()] {
    raw->AcceptLoop();
  });
  return chaos;
}

ChaosNet::~ChaosNet() { Stop(); }

void ChaosNet::Stop() {
  bool was_stopping = stopping_.exchange(true);
  if (was_stopping && !accept_thread_.joinable()) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // No grace: the force-close wakes client-side recv/send immediately; the
  // upstream-side pumps notice stopping_ at their next recv timeout tick.
  conns_.DrainAndJoin(0);
  listener_.Close();
}

void ChaosNet::InterruptibleSleep(int ms) const {
  const int64_t deadline = NowMs() + ms;
  while (!stopping_.load(std::memory_order_relaxed) && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<int64_t>(10, std::max<int64_t>(1, deadline - NowMs()))));
  }
}

void ChaosNet::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = listener_.AcceptOne(stopping_, nullptr);
    if (fd < 0) break;
    if (!conns_.Spawn(
            fd, [this](int client_fd) { HandleConnection(client_fd); },
            /*max_connections=*/256)) {
      // Spawn refused (at capacity or stopping) and closed the fd.
      continue;
    }
  }
}

void ChaosNet::PumpDownstream(int upstream_fd, int client_fd,
                              const void* state_ptr) {
  const ConnState* state = static_cast<const ConnState*>(state_ptr);
  char buf[4096];
  while (!stopping_.load(std::memory_order_relaxed) &&
         !state->stop.load(std::memory_order_relaxed)) {
    ssize_t n = recv(upstream_fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // Recv timeout tick: re-check the stop flags.
      }
      break;
    }
    // A frozen connection holds the server's response instead of
    // forwarding it — from the client's seat, the service went silent.
    while (state->frozen.load(std::memory_order_relaxed) &&
           !state->stop.load(std::memory_order_relaxed) &&
           !stopping_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (state->stop.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_relaxed)) {
      break;
    }
    if (options_.latency_ms > 0) InterruptibleSleep(options_.latency_ms);
    if (!net::SendAll(client_fd, buf, static_cast<size_t>(n))) break;
  }
}

void ChaosNet::HandleConnection(int client_fd) {
  connections_proxied_.fetch_add(1, std::memory_order_relaxed);
  const Fault fault = PickFault();
  if (fault != Fault::kNone) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }

  int upstream_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (upstream_fd < 0) return;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.upstream_port));
  if (inet_pton(AF_INET, options_.upstream_host.c_str(), &addr.sin_addr) !=
          1 ||
      connect(upstream_fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    close(upstream_fd);
    return;  // Client sees an immediate FIN — indistinguishable from a
             // refused upstream, which is what it is.
  }
  SetSockBuf(client_fd, options_.sockbuf_bytes);
  SetSockBuf(upstream_fd, options_.sockbuf_bytes);
  // Short recv timeouts make both pumps poll their stop flags; chaos
  // connections must never outlive Stop() by more than a tick.
  net::SetSocketTimeouts(client_fd, 200);
  net::SetSocketTimeouts(upstream_fd, 200);

  ConnState state;
  std::thread pump([this, upstream_fd, client_fd, &state] {
    PumpDownstream(upstream_fd, client_fd, &state);
  });

  char buf[4096];
  int64_t c2s_forwarded = 0;
  bool froze_once = false;
  bool rst = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
    ssize_t n = recv(client_fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    if (fault == Fault::kRst) {
      // The connection dies abruptly the moment the client commits to a
      // request: both sides get an RST, the server's mid-read.
      rst = true;
      break;
    }
    if (fault == Fault::kTorn) {
      const int64_t keep =
          std::min<int64_t>(n, std::max<int64_t>(
                                   0, options_.torn_after_bytes -
                                          c2s_forwarded));
      if (keep > 0) {
        net::SendAll(upstream_fd, buf, static_cast<size_t>(keep));
        c2s_forwarded += keep;
      }
      if (c2s_forwarded >= options_.torn_after_bytes) break;  // FIN both.
      continue;
    }
    if (options_.latency_ms > 0) InterruptibleSleep(options_.latency_ms);
    if (fault == Fault::kTrickle) {
      const int gap = std::max(1, options_.trickle_gap_ms);
      const int step = std::max(1, options_.trickle_bytes);
      for (ssize_t off = 0; off < n;
           off += step) {
        if (stopping_.load(std::memory_order_relaxed)) break;
        const size_t len =
            std::min<size_t>(static_cast<size_t>(step),
                             static_cast<size_t>(n - off));
        if (!net::SendAll(upstream_fd, buf + off, len)) break;
        InterruptibleSleep(gap);
      }
      c2s_forwarded += n;
      continue;
    }
    const bool freeze_now = fault == Fault::kFreeze && !froze_once;
    // The downstream pump freezes before the request goes through, so the
    // server's response cannot slip out ahead of the freeze.
    if (freeze_now) state.frozen.store(true, std::memory_order_relaxed);
    if (!net::SendAll(upstream_fd, buf, static_cast<size_t>(n))) break;
    c2s_forwarded += n;
    if (freeze_now) {
      // First request through, then the line goes dead both ways until
      // the freeze lapses (or the harness stops). This is the wedge the
      // bounded drain and the watchdog are measured against.
      froze_once = true;
      InterruptibleSleep(options_.freeze_ms);
      state.frozen.store(false, std::memory_order_relaxed);
    }
  }

  state.stop.store(true, std::memory_order_relaxed);
  pump.join();
  if (rst) {
    LingerRst(upstream_fd);
    LingerRst(client_fd);  // ConnectionSet's close() now sends RST too.
  }
  close(upstream_fd);
  // client_fd is closed by the owning ConnectionSet after this returns.
}

}  // namespace server
}  // namespace regal
