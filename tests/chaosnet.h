#ifndef REGAL_TESTS_CHAOSNET_H_
#define REGAL_TESTS_CHAOSNET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "server/net.h"
#include "util/status.h"

namespace regal {
namespace server {

/// Tuning for ChaosNet (see class comment). Fault *selection* is driven by
/// the failpoint registry; these options shape what a selected fault does.
struct ChaosOptions {
  std::string listen_address = "127.0.0.1";
  /// Upstream (real) service to proxy to.
  std::string upstream_host = "127.0.0.1";
  int upstream_port = 0;
  /// Added one-way latency per forwarded chunk, both directions.
  int latency_ms = 0;
  /// Trickle mode: bytes forwarded per gap.
  int trickle_bytes = 1;
  /// Trickle mode: pause between trickled chunks.
  int trickle_gap_ms = 20;
  /// Torn mode: client→server bytes forwarded before the connection is
  /// cut (mid-frame for any realistic request).
  int torn_after_bytes = 6;
  /// Freeze mode: how long a frozen connection stays wedged (it neither
  /// forwards nor closes; the peer just stops hearing from it).
  int freeze_ms = 60000;
  /// Test knob: when > 0, SO_RCVBUF/SO_SNDBUF on both sides of the proxy,
  /// making send-side wedges reproducible with small payloads.
  int sockbuf_bytes = 0;
};

/// A fault-injecting TCP proxy: clients connect to ChaosNet instead of the
/// real service, and each accepted connection consults the failpoint
/// registry (safety/failpoint.h) to decide its fate:
///
///   chaos.net.rst      — proxy both ways, then RST both sides mid-stream
///                        on the first client→server chunk.
///   chaos.net.torn     — forward exactly torn_after_bytes of the first
///                        client request (tearing the frame mid-payload),
///                        then FIN both sides.
///   chaos.net.freeze   — forward the first client→server chunk, then go
///                        silent: nothing moves in either direction until
///                        freeze_ms elapses or the harness stops. The
///                        stuck-mid-frame scenario watchdogs exist for.
///   chaos.net.trickle  — forward client→server traffic trickle_bytes at
///                        a time with trickle_gap_ms pauses (the
///                        slow-loris shape that defeats per-byte
///                        SO_RCVTIMEO).
///
/// Unselected connections proxy cleanly (plus latency_ms per chunk when
/// configured), so a probabilistic failpoint spec ("chaos.net.rst=0.3@7")
/// yields a reproducible mixed stream of good and bad connections from a
/// seed — the same determinism contract as every other fault harness in
/// the repo.
class ChaosNet {
 public:
  /// Listens and starts the accept thread.
  static Result<std::unique_ptr<ChaosNet>> Start(ChaosOptions options);

  ~ChaosNet();
  ChaosNet(const ChaosNet&) = delete;
  ChaosNet& operator=(const ChaosNet&) = delete;

  /// Stops accepting, unfreezes and joins every proxy connection.
  void Stop();

  int port() const { return listener_.port(); }

  /// Connections that were dealt each fate (diagnostics / test asserts).
  int64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }
  int64_t connections_proxied() const {
    return connections_proxied_.load(std::memory_order_relaxed);
  }

 private:
  explicit ChaosNet(ChaosOptions options);

  void AcceptLoop();
  void HandleConnection(int client_fd);
  /// Pumps upstream→client until EOF/error or stop; runs on its own
  /// thread per connection. `state_ptr` is the handler's ConnState (an
  /// internal type, hence the erased pointer).
  void PumpDownstream(int upstream_fd, int client_fd, const void* state_ptr);
  /// Sleeps in small steps so Stop() is never held up by a long fault.
  void InterruptibleSleep(int ms) const;

  ChaosOptions options_;
  net::Listener listener_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  net::ConnectionSet conns_;
  std::atomic<int64_t> faults_injected_{0};
  std::atomic<int64_t> connections_proxied_{0};
};

}  // namespace server
}  // namespace regal

#endif  // REGAL_TESTS_CHAOSNET_H_
