#ifndef REGAL_SERVER_NET_H_
#define REGAL_SERVER_NET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace regal {
namespace net {

/// The hardened socket utility layer shared by the admin endpoint and the
/// query service front-end. Everything here exists because a plain
/// socket/bind/listen/accept/send loop has three production-killing
/// failure modes:
///
///  * send() to a peer that already closed raises SIGPIPE, whose default
///    disposition terminates the *process* — one disconnecting client
///    takes down every tenant. SendAll() suppresses the signal.
///  * accept() fails transiently (ECONNABORTED, EMFILE under fd pressure,
///    EAGAIN after a kernel-dropped handshake); a loop that exits on any
///    failure dies permanently the first busy weekend. AcceptLoop() only
///    exits when the owner asked it to stop.
///  * per-connection handler threads leak (or race their fds) unless one
///    place owns spawn / force-unblock / join. ConnectionSet is that place.

/// Sends all of `size` bytes, retrying EINTR and suppressing SIGPIPE
/// (MSG_NOSIGNAL; on platforms without it, SIGPIPE is ignored process-wide
/// the first time a Listener opens). Returns false on any other error or
/// send timeout, with errno left for the caller.
bool SendAll(int fd, const char* data, size_t size);
inline bool SendAll(int fd, const std::string& data) {
  return SendAll(fd, data.data(), data.size());
}

/// Outcome of a fixed-length read.
enum class RecvOutcome {
  kOk,       ///< All `size` bytes arrived.
  kClosed,   ///< Peer closed before the *first* byte (clean EOF).
  kTorn,     ///< Peer closed or errored mid-read (partial data lost).
  kTimeout,  ///< SO_RCVTIMEO expired (idle peer).
  kExpired,  ///< The whole-read deadline passed first.
};

/// Reads exactly `size` bytes, retrying EINTR. With `deadline_ms` > 0 the
/// whole read must finish within that long (else kExpired), however often
/// a trickle restarts SO_RCVTIMEO; buffered bytes cost no extra syscall,
/// and a short read waits in poll(2).
RecvOutcome RecvFull(int fd, char* data, size_t size, int64_t deadline_ms = 0);

/// Bounds both directions: SO_RCVTIMEO and SO_SNDTIMEO to `timeout_ms`.
/// Every connection gets one so a wedged peer can never hold a handler
/// thread forever.
void SetSocketTimeouts(int fd, int timeout_ms);

/// How the accept loop treats a failed accept(). There is deliberately no
/// "fatal" action: the loop's contract is that only a stop request ends it
/// (an unclassified errno is retried with backoff rather than killing the
/// listener — spinning briefly beats dying permanently).
enum class AcceptErrorAction {
  kRetry,         ///< Per-connection transient: try again immediately.
  kRetryBackoff,  ///< Resource exhaustion (fds, memory): brief sleep first,
                  ///< giving in-flight connections a chance to close.
};

/// Classification used by AcceptLoop; exposed so the policy is unit-testable
/// without provoking real EMFILE. ECONNABORTED/EAGAIN/EWOULDBLOCK/EPROTO/
/// EINTR retry immediately; EMFILE/ENFILE/ENOBUFS/ENOMEM back off; anything
/// else backs off too (see AcceptErrorAction).
AcceptErrorAction ClassifyAcceptError(int error);

struct ListenerOptions {
  /// Loopback by default: both servers expose query text and corpus
  /// structure, so binding wider is an explicit decision.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (read back via port()).
  int port = 0;
  int backlog = 64;
};

/// A bound, listening TCP socket plus the hardened accept loop.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens. kInvalidArgument for a malformed address,
  /// kInternal when the address/port cannot be bound.
  static Result<Listener> Open(const ListenerOptions& options);

  /// Blocks until a connection arrives or `stopping` becomes true.
  /// Transient accept failures are counted in `accept_errors` (when
  /// non-null) and retried per ClassifyAcceptError — the loop never exits
  /// on an error alone. Returns the accepted fd, or -1 iff stopping.
  int AcceptOne(const std::atomic<bool>& stopping,
                obs::Counter* accept_errors) const;

  /// Wakes a blocked AcceptOne (the caller sets its stop flag first).
  void Shutdown();
  void Close();

  int port() const { return port_; }
  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Owns one thread + fd per live connection. The set closes each fd only
/// after its handler thread has been joined, so a Stop() path can safely
/// shutdown() live fds (to unblock recv) without racing fd reuse.
class ConnectionSet {
 public:
  ConnectionSet() = default;
  ~ConnectionSet() { DrainAndJoin(0); }
  ConnectionSet(const ConnectionSet&) = delete;
  ConnectionSet& operator=(const ConnectionSet&) = delete;

  /// Spawns `handler(fd)` on a new thread. The set takes ownership of `fd`
  /// (closing it after the handler returns). Returns false — and closes
  /// `fd` immediately — when `max_connections` handlers are already live.
  /// Finished handlers are reaped opportunistically on the next Spawn.
  bool Spawn(int fd, std::function<void(int)> handler, int max_connections);

  /// The one teardown path. Bounded-deadline drain: SHUT_RD everything
  /// (polite — handlers finish the response in flight), wait up to
  /// `grace_ms` for handlers to report done, then SHUT_RDWR the stragglers
  /// (waking handlers blocked in send() toward a frozen peer), join every
  /// handler thread and close the fds. Returns how many connections needed
  /// the force-close — an operator-visible signal that peers were wedged at
  /// shutdown. A frozen connection can therefore delay Stop() by at most
  /// grace_ms plus scheduling noise, never hang it. `grace_ms` 0 aborts at
  /// once. Idempotent; new Spawns after this are refused.
  int DrainAndJoin(int grace_ms);

  int active() const;

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  mutable std::mutex mu_;
  std::vector<Conn> conns_;
  bool closed_ = false;
};

}  // namespace net
}  // namespace regal

#endif  // REGAL_SERVER_NET_H_
