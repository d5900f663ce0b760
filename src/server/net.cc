#include "server/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

// MSG_NOSIGNAL is POSIX.1-2008 and present everywhere this code builds
// (Linux, BSDs); the fallback ignores SIGPIPE process-wide at listener
// startup so a platform without the flag still cannot be killed by a
// disconnecting client.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#define REGAL_NET_NEEDS_SIGPIPE_IGNORE 1
#endif

namespace regal {
namespace net {

namespace {

void IgnoreSigpipeOnce() {
#ifdef REGAL_NET_NEEDS_SIGPIPE_IGNORE
  static const bool installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
#endif
}

}  // namespace

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that closed mid-response yields EPIPE here
    // instead of a process-terminating SIGPIPE.
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

RecvOutcome RecvFull(int fd, char* data, size_t size, int64_t deadline_ms) {
  using Clock = std::chrono::steady_clock;
  // With a deadline every recv is non-blocking; waits happen in poll.
  const int flags = deadline_ms > 0 ? MSG_DONTWAIT : 0;
  const Clock::time_point deadline =
      deadline_ms > 0 ? Clock::now() + std::chrono::milliseconds(deadline_ms)
                      : Clock::time_point();
  int64_t idle_ms = -1;  // SO_RCVTIMEO, read at the first wait.
  size_t got = 0;
  while (got < size) {
    ssize_t n = recv(fd, data + got, size - got, flags);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      return got == 0 ? RecvOutcome::kClosed : RecvOutcome::kTorn;
    }
    if (deadline_ms <= 0) return RecvOutcome::kTimeout;
    // SO_RCVTIMEO still bounds each wait: a silent peer ends at the
    // shorter of it and the deadline, a trickler at the deadline.
    if (idle_ms < 0) {
      struct timeval tv = {};
      socklen_t len = sizeof(tv);
      idle_ms = getsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, &len) == 0
                    ? int64_t{tv.tv_sec} * 1000 + tv.tv_usec / 1000
                    : 0;
    }
    const int64_t left_ms =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
            .count();
    if (left_ms <= 0) return RecvOutcome::kExpired;
    const bool idle_first = idle_ms > 0 && idle_ms < left_ms;
    struct pollfd ready = {fd, POLLIN, 0};
    const int polled =
        poll(&ready, 1, static_cast<int>(idle_first ? idle_ms : left_ms));
    if (polled == 0) {
      return idle_first ? RecvOutcome::kTimeout : RecvOutcome::kExpired;
    }
    if (polled < 0 && errno != EINTR) return RecvOutcome::kTorn;
  }
  return RecvOutcome::kOk;
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

AcceptErrorAction ClassifyAcceptError(int error) {
  switch (error) {
    case EINTR:
    case ECONNABORTED:  // Peer reset between handshake and accept.
    case EAGAIN:        // Kernel-level drop; also EWOULDBLOCK on Linux.
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case EPROTO:
      return AcceptErrorAction::kRetry;
    case EMFILE:   // Process fd table full —
    case ENFILE:   // — or the system's.
    case ENOBUFS:
    case ENOMEM:
      return AcceptErrorAction::kRetryBackoff;
    default:
      // Unclassified errors also back off and retry: the loop's contract
      // is that only a stop request ends it, and a brief sleep turns a
      // would-be spin (e.g. EBADF from a misuse bug) into bounded noise.
      return AcceptErrorAction::kRetryBackoff;
  }
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Result<Listener> Listener::Open(const ListenerOptions& options) {
  IgnoreSigpipeOnce();
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("net: socket() failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("net: bad bind address '" +
                                   options.bind_address + "'");
  }
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(fd, options.backlog) < 0) {
    Status status = Status::Internal(
        "net: cannot listen on " + options.bind_address + ":" +
        std::to_string(options.port) + ": " + std::strerror(errno));
    close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    close(fd);
    return Status::Internal("net: getsockname() failed");
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

int Listener::AcceptOne(const std::atomic<bool>& stopping,
                        obs::Counter* accept_errors) const {
  while (!stopping.load(std::memory_order_relaxed)) {
    int fd = accept(fd_, nullptr, nullptr);
    if (fd >= 0) return fd;
    const int error = errno;
    // Stop() shuts the listener down, which fails the blocked accept
    // (EINVAL on Linux) *after* setting the stop flag — checked above on
    // the next turn, so the error itself never decides to exit.
    if (stopping.load(std::memory_order_relaxed)) break;
    if (accept_errors != nullptr) accept_errors->Increment();
    if (ClassifyAcceptError(error) == AcceptErrorAction::kRetryBackoff) {
      // Under fd exhaustion immediate retry would busy-loop failing; a
      // short sleep lets in-flight connections close and return fds.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return -1;
}

void Listener::Shutdown() {
  if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool ConnectionSet::Spawn(int fd, std::function<void(int)> handler,
                          int max_connections) {
  std::vector<Conn> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Reap handlers that already returned (join is instant for them), so
    // long-lived servers don't accumulate dead threads.
    for (size_t i = 0; i < conns_.size();) {
      if (conns_[i].done->load(std::memory_order_acquire)) {
        finished.push_back(std::move(conns_[i]));
        conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (closed_ || static_cast<int>(conns_.size()) >= max_connections) {
      close(fd);
      for (Conn& conn : finished) {
        conn.thread.join();
        close(conn.fd);
      }
      return false;
    }
    Conn conn;
    conn.fd = fd;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    conn.thread = std::thread(
        [fd, done = conn.done, handler = std::move(handler)] {
          handler(fd);
          // FIN the peer now — it must not wait for the (lazy, join-time)
          // close() to learn the conversation is over. The fd number stays
          // allocated until after the join, so Stop()'s shutdown() of live
          // connections can never hit a reused descriptor.
          shutdown(fd, SHUT_RDWR);
          done->store(true, std::memory_order_release);
        });
    conns_.push_back(std::move(conn));
  }
  for (Conn& conn : finished) {
    conn.thread.join();
    close(conn.fd);
  }
  return true;
}

int ConnectionSet::DrainAndJoin(int grace_ms) {
  std::vector<Conn> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    taken.swap(conns_);
  }
  // Phase 1, polite: EOF the read side so handlers finish their in-flight
  // response and return through the normal clean-close path.
  for (Conn& conn : taken) {
    if (!conn.done->load(std::memory_order_acquire)) shutdown(conn.fd, SHUT_RD);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms);
  for (;;) {
    bool all_done = true;
    for (Conn& conn : taken) {
      if (!conn.done->load(std::memory_order_acquire)) {
        all_done = false;
        break;
      }
    }
    if (all_done || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 2, forced: a handler still running is wedged — typically blocked
  // in send() toward a peer that stopped reading. SHUT_RDWR fails the
  // blocked send (EPIPE) so the handler exits now instead of waiting out
  // its SO_SNDTIMEO.
  int forced = 0;
  for (Conn& conn : taken) {
    if (!conn.done->load(std::memory_order_acquire)) {
      shutdown(conn.fd, SHUT_RDWR);
      ++forced;
    }
  }
  for (Conn& conn : taken) {
    conn.thread.join();
    close(conn.fd);
  }
  return forced;
}

int ConnectionSet::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (const Conn& conn : conns_) {
    if (!conn.done->load(std::memory_order_acquire)) ++live;
  }
  return live;
}

}  // namespace net
}  // namespace regal
