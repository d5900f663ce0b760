#include "server/service.h"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace regal {
namespace server {

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)),
      admission_(
          std::make_unique<safety::AdmissionController>(options_.admission)),
      governor_(admission_->options().capacity, options_.governance) {
  obs::Registry& registry = obs::Registry::Default();
  connections_counter_ =
      registry.GetCounter("regal_server_connections_total");
  connections_active_ = registry.GetGauge("regal_server_connections_active");
  accept_errors_ = registry.GetCounter("regal_server_accept_errors_total");
  watchdog_reaped_counter_ =
      registry.GetCounter("regal_resilience_watchdog_reaped_total");
  bytes_received_ = registry.GetCounter("regal_server_bytes_received_total");
  bytes_sent_ = registry.GetCounter("regal_server_bytes_sent_total");
  latency_ms_ = registry.GetHistogram("regal_server_request_latency_ms");
  inflight_response_bytes_ =
      registry.GetGauge("regal_server_inflight_response_bytes");
}

Result<std::unique_ptr<QueryService>> QueryService::Start(
    ServiceOptions options) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<QueryService> service(new QueryService(std::move(options)));
  net::ListenerOptions listen;
  listen.bind_address = service->options_.bind_address;
  listen.port = service->options_.port;
  REGAL_ASSIGN_OR_RETURN(service->listener_, net::Listener::Open(listen));
  service->accept_thread_ =
      std::thread([raw = service.get()] { raw->AcceptLoop(); });
  obs::EventLog::Default().Log(
      obs::Severity::kInfo, "server", "query service listening", 0,
      {{"address", service->options_.bind_address},
       {"port", std::to_string(service->listener_.port())}});
  return service;
}

QueryService::~QueryService() { Stop(); }

void QueryService::Stop() {
  if (stopping_.exchange(true, std::memory_order_relaxed)) {
    // A second Stop still waits for the first teardown's threads.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Wake any request parked in the admission queue — it answers its
  // client with a typed shutdown refusal rather than holding the drain.
  admission_->Shutdown();
  // Bounded drain: handlers get drain_grace_ms to finish (and send) the
  // request they are executing and observe EOF; stragglers — typically a
  // handler wedged in send() toward a frozen peer — are force-closed, so
  // Stop() is bounded even when a peer stops reading mid-response.
  const int forced = conns_.DrainAndJoin(options_.drain_grace_ms);
  forced_closes_.fetch_add(forced, std::memory_order_relaxed);
  listener_.Close();
  obs::EventLog::Default().Log(
      obs::Severity::kInfo, "server", "query service stopped", 0,
      {{"requests_total", std::to_string(requests_total())},
       {"connections_total", std::to_string(connections_total())},
       {"forced_closes", std::to_string(forced)}});
}

Status QueryService::AddInstance(const std::string& name, QueryEngine engine) {
  if (name.empty()) {
    return Status::InvalidArgument("server: instance name must be non-empty");
  }
  auto hosted = std::make_shared<QueryEngine>(std::move(engine));
  if (options_.recorder != nullptr) {
    hosted->set_flight_recorder(options_.recorder);
  }
  std::unique_lock<std::shared_mutex> lock(engines_mu_);
  auto [it, inserted] = engines_.emplace(name, std::move(hosted));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("server: instance '" + name +
                                 "' already hosted");
  }
  return Status::OK();
}

std::shared_ptr<QueryEngine> QueryService::engine(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  auto it = engines_.find(name);
  return it != engines_.end() ? it->second : nullptr;
}

std::vector<std::string> QueryService::instance_names() const {
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  std::vector<std::string> names;
  names.reserve(engines_.size());
  for (const auto& [name, hosted] : engines_) {
    (void)hosted;
    names.push_back(name);
  }
  return names;
}

void QueryService::SetTenantQuota(const std::string& tenant,
                                  safety::TenantQuota quota) {
  governor_.SetQuota(tenant, std::move(quota));
}

Status QueryService::EnableAdminServer(admin::AdminOptions options) {
  if (admin_server_ != nullptr) {
    return Status::AlreadyExists("server: admin endpoint already running");
  }
  if (options.recorder == nullptr && options_.recorder != nullptr) {
    options.recorder = options_.recorder;
  }
  REGAL_ASSIGN_OR_RETURN(std::unique_ptr<admin::AdminServer> server,
                         admin::AdminServer::Start(std::move(options)));
  server->AddStatusSection("server", [this] {
    admin::StatusRows rows;
    rows.emplace_back("port", std::to_string(port()));
    rows.emplace_back("stopping", stopping() ? "true" : "false");
    rows.emplace_back("connections_active",
                      std::to_string(active_connections()));
    rows.emplace_back("connections_total",
                      std::to_string(connections_total()));
    rows.emplace_back("requests_total", std::to_string(requests_total()));
    {
      std::shared_lock<std::shared_mutex> lock(engines_mu_);
      std::string names;
      for (const auto& [name, hosted] : engines_) {
        (void)hosted;
        if (!names.empty()) names += ' ';
        names += name;
      }
      rows.emplace_back("instances", std::to_string(engines_.size()));
      rows.emplace_back("instance_names", names.empty() ? "(none)" : names);
    }
    rows.emplace_back("max_connections",
                      std::to_string(options_.max_connections));
    rows.emplace_back("max_frame_bytes",
                      std::to_string(options_.max_frame_bytes));
    return rows;
  });
  server->AddStatusSection("tenants",
                           [this] { return governor_.StatusRows(); });
  server->AddStatusSection("resilience", [this] {
    admin::StatusRows rows;
    safety::AdmissionSnapshot snap = admission_->Snapshot();
    rows.emplace_back("capacity",
                      std::to_string(admission_->options().capacity));
    rows.emplace_back("in_flight", std::to_string(snap.in_flight));
    rows.emplace_back("queued", std::to_string(snap.queued));
    rows.emplace_back("dropping", snap.dropping ? "true" : "false");
    rows.emplace_back("brownout", snap.brownout ? "true" : "false");
    rows.emplace_back("drop_count", std::to_string(snap.drop_count));
    rows.emplace_back("admitted_total",
                      std::to_string(snap.admitted_total));
    rows.emplace_back("shed_total", std::to_string(snap.shed_total));
    rows.emplace_back("brownout_entries",
                      std::to_string(snap.brownout_entries));
    rows.emplace_back("watchdog_reaped",
                      std::to_string(watchdog_reaped()));
    rows.emplace_back("forced_closes", std::to_string(forced_closes()));
    return rows;
  });
  // One catalog/cache/exec/telemetry block per hosted instance, prefixed
  // by its name. Instances added after this call are served for queries
  // but absent from /statusz until the admin server is re-enabled.
  {
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    for (const auto& [name, hosted] : engines_) {
      hosted->RegisterStatusSections(server.get(), name + ".");
    }
  }
  QueryEngine::RegisterCpuStatusSection(server.get());
  admin_server_ = std::move(server);
  return Status::OK();
}

void QueryService::DisableAdminServer() { admin_server_.reset(); }

void QueryService::AcceptLoop() {
  while (true) {
    int fd = listener_.AcceptOne(stopping_, accept_errors_);
    if (fd < 0) break;  // Stop requested — the only way out.
    connections_counter_->Increment();
    connections_seen_.fetch_add(1, std::memory_order_relaxed);
    if (!conns_.Spawn(
            fd, [this](int conn_fd) { HandleConnection(conn_fd); },
            options_.max_connections)) {
      obs::Registry::Default()
          .GetCounter("regal_server_connections_rejected_total")
          ->Increment();
    }
  }
}

void QueryService::HandleConnection(int fd) {
  net::SetSocketTimeouts(fd, options_.idle_timeout_ms);
  if (options_.sockbuf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options_.sockbuf_bytes,
               sizeof(options_.sockbuf_bytes));
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sockbuf_bytes,
               sizeof(options_.sockbuf_bytes));
  }
  connections_active_->Add(1);
  obs::Registry& registry = obs::Registry::Default();
  auto frame_error = [&registry](const char* kind) {
    registry
        .GetCounter("regal_server_frame_errors_total", {{"kind", kind}})
        ->Increment();
  };
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::string payload;
    FrameRead read = ReadFrame(fd, options_.max_frame_bytes, &payload,
                               options_.frame_deadline_ms);
    if (read == FrameRead::kClosed || read == FrameRead::kTimeout) break;
    if (read == FrameRead::kTorn || read == FrameRead::kExpired) {
      if (read == FrameRead::kExpired) {  // Payload missed the deadline.
        watchdog_reaped_.fetch_add(1, std::memory_order_relaxed);
        watchdog_reaped_counter_->Increment();
      }
      frame_error("torn");
      break;
    }
    if (read == FrameRead::kOversized) {
      frame_error("oversized");
      Response refuse;
      refuse.ok = false;
      refuse.code = StatusCodeToString(StatusCode::kInvalidArgument);
      refuse.message = "frame exceeds " +
                       std::to_string(options_.max_frame_bytes) +
                       " byte cap; closing (cannot resync)";
      net::SendAll(fd, EncodeFrame(RenderResponse(refuse)));
      break;
    }
    bytes_received_->Increment(
        static_cast<int64_t>(payload.size() + kFrameHeaderBytes));

    Response response;
    std::string tenant;
    Result<Request> request = ParseRequest(payload);
    if (!request.ok()) {
      frame_error("bad_request");
      response.ok = false;
      response.code = StatusCodeToString(request.status().code());
      response.message = request.status().message();
    } else {
      tenant = request->tenant;
      response = Execute(*request);
    }

    std::string frame = EncodeFrame(RenderResponse(response));
    // Byte-accounted backpressure: the response is charged against the
    // tenant's in-flight cap for the duration of the (possibly slow)
    // send. Over the cap, the rows are dropped and a small retryable
    // error goes out instead.
    int64_t charged = 0;
    if (!tenant.empty()) {
      Status charge = governor_.ChargeResponseBytes(
          tenant, static_cast<int64_t>(frame.size()));
      if (!charge.ok()) {
        registry
            .GetCounter("regal_server_admission_rejects_total",
                        {{"reason", "backpressure"}})
            ->Increment();
        Response refused;
        refused.id = response.id;
        refused.ok = false;
        refused.code = StatusCodeToString(charge.code());
        refused.message = charge.message();
        frame = EncodeFrame(RenderResponse(refused));
      } else {
        charged = static_cast<int64_t>(frame.size());
      }
    }
    inflight_response_bytes_->Add(static_cast<double>(frame.size()));
    const bool sent = net::SendAll(fd, frame);
    inflight_response_bytes_->Add(-static_cast<double>(frame.size()));
    if (charged > 0) governor_.ReleaseResponseBytes(tenant, charged);
    if (!sent) {
      // EPIPE/ECONNRESET from a vanished client, or a send timeout. With
      // MSG_NOSIGNAL this is a counter, not a process obituary.
      registry.GetCounter("regal_server_send_errors_total")->Increment();
      break;
    }
    bytes_sent_->Increment(static_cast<int64_t>(frame.size()));
  }
  connections_active_->Add(-1);
}

Response QueryService::Execute(const Request& request) {
  obs::Registry& registry = obs::Registry::Default();
  requests_seen_.fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.id = request.id;
  Timer timer;
  auto finish = [&](bool ok) {
    response.ok = ok;
    // The histogram times the service on every outcome; the wire field
    // keeps the engine's evaluation time on success.
    const double service_ms = timer.Millis();
    if (response.elapsed_ms == 0) response.elapsed_ms = service_ms;
    latency_ms_->Observe(service_ms);
    registry
        .GetCounter("regal_server_requests_total",
                    {{"tenant", request.tenant},
                     {"outcome", ok ? "ok" : "error"}})
        ->Increment();
    return response;
  };
  auto fail = [&](const Status& status) {
    response.code = StatusCodeToString(status.code());
    response.message = status.message();
    return finish(false);
  };

  std::shared_ptr<QueryEngine> hosted;
  {
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    if (!request.instance.empty()) {
      auto it = engines_.find(request.instance);
      if (it != engines_.end()) hosted = it->second;
    } else if (engines_.size() == 1) {
      hosted = engines_.begin()->second;
    }
  }
  if (hosted == nullptr) {
    if (request.instance.empty()) {
      return fail(Status::InvalidArgument(
          "request names no instance and the service hosts " +
          std::to_string(instance_names().size())));
    }
    return fail(Status::NotFound("unknown instance '" + request.instance +
                                 "'"));
  }

  // Adaptive admission before any engine work: when the slot queue's
  // sojourn time says the box is behind, this request is shed *here*,
  // with a typed OVERLOADED reply carrying the server's backoff hint —
  // never a silent drop or a timeout the client must diagnose.
  safety::AdmitDecision decision = admission_->Admit(request.priority);
  if (decision.outcome != safety::AdmitOutcome::kAdmitted) {
    response.retry_after_ms = decision.retry_after_ms;
    return fail(Status::Overloaded(
        std::string("admission: shed (") +
        safety::AdmitOutcomeLabel(decision.outcome) + ") after " +
        std::to_string(decision.sojourn_ms) + " ms queued; retry after " +
        std::to_string(decision.retry_after_ms) + " ms"));
  }
  safety::AdmissionSlot slot(admission_.get());

  // Brownout: sustained shedding degrades the service to work it can
  // still do cheaply — cache-resident answers under tight deadlines —
  // instead of failing everything slowly.
  const bool brownout = admission_->InBrownout();
  ApplyBrownoutTransition(brownout);

  // The tenant quota's per-query limits, tightened (never loosened) by the
  // request's own deadline. Even admitted (cache-resident) work runs on a
  // short leash while browned out: anything that turns out slow is cut,
  // not queued.
  safety::QueryLimits limits = governor_.QuotaFor(request.tenant).limits;
  auto tighten = [&limits](double cap_ms) {
    double& ms = limits.deadline_ms;
    if (cap_ms > 0 && (ms <= 0 || cap_ms < ms)) ms = cap_ms;
  };
  tighten(request.deadline_ms);
  if (brownout) tighten(options_.brownout_deadline_ms);

  // Prepared once for the probe and the run. A query that can never run
  // gets its own error here, not a retryable refusal. `prepared` holds the
  // catalog read lock until this returns, so the rows below render from
  // the catalog the query ran against, whatever re-bind is waiting.
  Result<PreparedQuery> prepared = hosted->Prepare(request.query, limits);
  if (!prepared.ok()) return fail(prepared.status());

  if (brownout && !hosted->IsCacheResident(*prepared)) {
    response.retry_after_ms =
        static_cast<double>(admission_->options().interval_ms);
    registry
        .GetCounter("regal_resilience_shed_total",
                    {{"reason", "brownout"}})
        ->Increment();
    return fail(Status::Overloaded(
        "brownout: serving cache-resident queries only; retry after " +
        std::to_string(response.retry_after_ms) + " ms"));
  }

  Status admitted = governor_.Admit(request.tenant);
  if (!admitted.ok()) {
    registry
        .GetCounter("regal_server_admission_rejects_total",
                    {{"reason", "fair_share"}})
        ->Increment();
    return fail(admitted);
  }
  safety::AdmissionTicket ticket(&governor_, request.tenant);

  Result<QueryAnswer> answer = hosted->Execute(*prepared);
  if (!answer.ok()) return fail(answer.status());

  response.code = "OK";
  response.row_count = static_cast<int64_t>(answer->regions.size());
  response.elapsed_ms = answer->elapsed_ms;
  int64_t limit = request.limit >= 0 ? request.limit
                                     : options_.default_row_limit;
  limit = std::min<int64_t>(limit, response.row_count);
  if (limit > 0) {
    response.rows =
        answer->Rows(hosted->instance(), static_cast<int>(limit));
  }
  return finish(true);
}

void QueryService::ApplyBrownoutTransition(bool brownout) {
  bool was = brownout_applied_.load(std::memory_order_relaxed);
  if (was == brownout) return;
  if (!brownout_applied_.compare_exchange_strong(was, brownout,
                                                 std::memory_order_relaxed)) {
    return;  // Another request already applied this transition.
  }
  // Checkpoint IO competes with serving for the same disk and catalog
  // lock; while browned out it is deferred (the WAL keeps acknowledged
  // mutations durable regardless).
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  for (const auto& [name, hosted] : engines_) {
    (void)name;
    hosted->SetCheckpointerPaused(brownout);
  }
  obs::EventLog::Default().Log(
      obs::Severity::kWarning, "server",
      brownout ? "brownout entered: cache-resident queries only"
               : "brownout exited: full service restored",
      0, {});
}

}  // namespace server
}  // namespace regal
