#ifndef REGAL_SERVER_SERVICE_H_
#define REGAL_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>

#include "admin/admin_server.h"
#include "obs/flight_recorder.h"
#include "query/engine.h"
#include "safety/admission.h"
#include "safety/tenant.h"
#include "server/net.h"
#include "server/protocol.h"
#include "util/status.h"

namespace regal {
namespace server {

/// Configuration for the multi-tenant query service front-end.
struct ServiceOptions {
  /// Loopback by default; binding wider is an explicit decision.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (read back via port()).
  int port = 0;
  /// Frames larger than this are rejected and the connection closed (a
  /// corrupt length prefix cannot be resynchronized).
  uint32_t max_frame_bytes = 1u << 20;
  /// Connections beyond this are accepted and immediately closed.
  int max_connections = 256;
  /// recv/send timeout per connection: an idle or wedged peer is
  /// disconnected after this long.
  int idle_timeout_ms = 30000;
  /// Row-render cap when the request does not carry its own `limit`.
  int64_t default_row_limit = 10;
  /// Default tenant quota (per-tenant overrides via
  /// QueryService::SetTenantQuota).
  safety::TenantGovernor::Options governance;
  /// When set, every hosted engine records into this flight recorder (so
  /// one /tracez covers all tenants); null leaves each engine on the
  /// process-wide default.
  obs::FlightRecorder* recorder = nullptr;
  /// CoDel-style adaptive admission (see safety/admission.h). Its
  /// `capacity` is the service's one global concurrency cap; tenant fair
  /// share divides it.
  safety::AdmissionOptions admission;
  /// Stop() drain bound: handlers get this long to finish politely before
  /// their sockets are force-closed (see ConnectionSet::DrainAndJoin).
  int drain_grace_ms = 2000;
  /// Stuck-connection defense: a peer that sent a frame header owes the
  /// payload within this deadline, or the thread reading it closes the
  /// connection. <= 0 disables.
  int64_t frame_deadline_ms = 10000;
  /// Brownout tightens every request's effective deadline to at most this.
  double brownout_deadline_ms = 50;
  /// Test knob: when > 0, SO_RCVBUF/SO_SNDBUF for accepted connections —
  /// small buffers make send-side wedges reproducible in tests.
  int sockbuf_bytes = 0;
};

/// The multi-tenant query service: a thread-per-connection request loop
/// over the length-prefixed JSON frame protocol (see protocol.h), hosting
/// a catalog of named engines (one per corpus Instance) and executing
/// region-algebra queries for many concurrent clients under per-tenant
/// governance.
///
/// Concurrency model: one accept thread (hardened loop — transient accept
/// errors are counted and retried, never fatal) plus one handler thread
/// per live connection, capped by max_connections. Queries on distinct
/// connections execute genuinely concurrently; the engines' catalog
/// read-write locks, result caches and thread pool are all shared and
/// internally synchronized, so this layer adds no locking around
/// evaluation itself.
///
/// Governance: each request takes one of the AdmissionController's slots
/// (the global concurrency cap; over it, requests queue and CoDel sheds),
/// is prepared once under the tenant quota's QueryLimits (tightened further
/// by the request's own deadline_ms), passes the brownout probe and the
/// TenantGovernor's fair share of those slots, executes, renders its rows
/// under the catalog read lock it ran under, and has its response bytes
/// charged against the tenant's in-flight byte cap before the send — the
/// backpressure path that turns a slow-reading client into that tenant's
/// problem instead of the box's. A query that can never run (parse error,
/// unknown name, over the complexity caps) fails with its own error; every
/// refusal of runnable work is a typed error the client can retry.
///
/// Shutdown/drain: Stop() stops accepting, then SHUT_RDs every live
/// connection — handlers finish the request they are executing, send its
/// response, observe EOF and exit — and joins every thread. Sends to
/// stuck clients are bounded by idle_timeout_ms, so Stop() always
/// terminates.
class QueryService {
 public:
  /// Binds, listens, starts the accept thread. The service is usable (and
  /// AddInstance callable) immediately; requests naming instances that do
  /// not exist yet fail with NOT_FOUND.
  static Result<std::unique_ptr<QueryService>> Start(ServiceOptions options = {});

  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Graceful shutdown (see class comment). Idempotent.
  void Stop();

  int port() const { return listener_.port(); }

  /// Hosts `engine` under `name`. kAlreadyExists if taken. Thread-safe
  /// against concurrent requests (they see the catalog before or after,
  /// never half-way).
  Status AddInstance(const std::string& name, QueryEngine engine);

  /// The hosted engine (shared_ptr: stays valid across a concurrent
  /// catalog change), or null.
  std::shared_ptr<QueryEngine> engine(const std::string& name) const;

  std::vector<std::string> instance_names() const;

  /// Per-tenant quota override (default comes from options.governance).
  void SetTenantQuota(const std::string& tenant, safety::TenantQuota quota);

  safety::TenantGovernor& governor() { return governor_; }

  /// The adaptive admission controller (overload state, for tests and
  /// /statusz; its lifecycle belongs to the service).
  safety::AdmissionController& admission() { return *admission_; }

  /// Connections force-closed by the last Stop() drain.
  int64_t forced_closes() const {
    return forced_closes_.load(std::memory_order_relaxed);
  }
  /// Connections closed for missing frame_deadline_ms mid-frame.
  int64_t watchdog_reaped() const {
    return watchdog_reaped_.load(std::memory_order_relaxed);
  }

  /// Starts an embedded admin endpoint exposing this service's /statusz
  /// sections ("server", "tenants", one catalog section per instance,
  /// "cpu") plus /metrics and /tracez. The options' recorder defaults to
  /// the service recorder when one was configured.
  Status EnableAdminServer(admin::AdminOptions options = {});
  void DisableAdminServer();
  admin::AdminServer* admin_server() { return admin_server_.get(); }

  // Aggregate stats (also exported as regal_server_* metrics).
  int64_t requests_total() const {
    return requests_seen_.load(std::memory_order_relaxed);
  }
  int64_t connections_total() const {
    return connections_seen_.load(std::memory_order_relaxed);
  }
  int active_connections() const { return conns_.active(); }
  bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

 private:
  explicit QueryService(ServiceOptions options);

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Parses, admits, executes; fills the response (never throws, never
  /// kills the connection — transport errors are the caller's job).
  Response Execute(const Request& request);

  /// Applies brownout side effects exactly once per transition (pause or
  /// resume every hosted engine's background checkpointer).
  void ApplyBrownoutTransition(bool brownout);

  ServiceOptions options_;
  std::unique_ptr<safety::AdmissionController> admission_;
  safety::TenantGovernor governor_;
  std::atomic<bool> brownout_applied_{false};
  std::atomic<int64_t> watchdog_reaped_{0};
  std::atomic<int64_t> forced_closes_{0};
  net::Listener listener_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  net::ConnectionSet conns_;

  mutable std::shared_mutex engines_mu_;
  std::map<std::string, std::shared_ptr<QueryEngine>> engines_;

  std::atomic<int64_t> requests_seen_{0};
  std::atomic<int64_t> connections_seen_{0};

  // Cached unlabeled metric handles (labeled families are fetched per use).
  obs::Counter* connections_counter_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Counter* accept_errors_ = nullptr;
  obs::Counter* watchdog_reaped_counter_ = nullptr;
  obs::Counter* bytes_received_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
  obs::Gauge* inflight_response_bytes_ = nullptr;

  std::unique_ptr<admin::AdminServer> admin_server_;
};

}  // namespace server
}  // namespace regal

#endif  // REGAL_SERVER_SERVICE_H_
