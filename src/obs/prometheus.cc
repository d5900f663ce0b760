#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>
#include <map>

namespace regal {
namespace obs {

namespace {

// Help lines for every family registered in src/, so a scrape is
// self-describing without every registration site carrying prose. The
// metric_name_lint test (tools/check_metric_names.py) fails when a
// registered family has no entry here or an entry has no registration.
const std::map<std::string, std::string>& BuiltinHelp() {
  static const auto* help = new std::map<std::string, std::string>{
      {"regal_queries_total", "Queries executed, by statement verb."},
      {"regal_query_latency_ms",
       "Query evaluation latency in milliseconds (evaluation only: parse, "
       "view resolution and optimization are not timed)."},
      {"regal_server_request_latency_ms",
       "Service-side wall time per served request in milliseconds, every "
       "outcome: from the parsed request through admission, evaluation and "
       "row rendering to the built response (frame IO excluded)."},
      {"regal_query_peak_memory_bytes",
       "Peak bytes of materialized results per governed query."},
      {"regal_engine_inflight_queries",
       "Queries currently inside the engine's evaluation section."},
      {"regal_recorder_kept_total",
       "Flight-recorder records kept, by reason (slow/error/sampled)."},
      {"regal_recorder_skipped_total",
       "Completed queries the flight recorder chose not to keep."},
      {"regal_recorder_entries",
       "Records currently resident in the flight-recorder ring."},
      {"regal_log_records_total", "Structured log records emitted, by severity."},
      {"regal_log_dropped_total",
       "Structured log records dropped by the rate limiter."},
      {"regal_exec_threads", "Lanes (workers + caller) of the default pool."},
      {"regal_exec_queue_depth", "Thread-pool queue length sampled at submit."},
      {"regal_exec_active_lanes",
       "Pool lanes currently executing work (utilization numerator)."},
      {"regal_exec_tasks_total", "Thread-pool chunk/task executions."},
      {"regal_exec_steals_total", "Task executions claimed by a worker."},
      {"regal_exec_parallel_ops_total", "Operator kernels run partitioned."},
      {"regal_exec_kernel_dispatch_total",
       "Operator kernel calls through the SIMD dispatcher, by ISA tier."},
      {"regal_cache_hits_total", "Result-cache lookups that short-circuited."},
      {"regal_cache_misses_total", "Result-cache lookups that found nothing."},
      {"regal_cache_inserts_total", "Results published to the result cache."},
      {"regal_cache_evictions_total", "Result-cache entries evicted under pressure."},
      {"regal_cache_superseded_total",
       "Result-cache entries dropped, or inserts abandoned, because a result "
       "for the same instance and expression at a newer stamp replaced them."},
      {"regal_cache_insert_failures_total",
       "Result-cache inserts abandoned (pressure/failpoint)."},
      {"regal_cache_bytes",
       "Bytes the result cache charges its budget for its resident entries: "
       "each entry's allocated region payload (capacity x 8 bytes) plus a "
       "fixed 256-byte estimate for its key, expression and bookkeeping. A "
       "payload several entries share is charged to each of them, so this "
       "is an upper bound on the memory the cache pins."},
      {"regal_cache_payload_bytes",
       "Distinct region-payload bytes (capacity x 8 bytes) the result "
       "cache's entries hold, each payload counted once however many "
       "entries share it."},
      {"regal_cache_hit_ratio",
       "Lifetime hits / (hits + misses) of the result cache."},
      {"regal_safety_queries_admitted_total",
       "Governed queries passing admission control."},
      {"regal_safety_queries_rejected_total",
       "Queries refused up front, by reason."},
      {"regal_safety_queries_degraded_total",
       "Queries that fell back to sequential paths, by reason."},
      {"regal_safety_queries_stopped_total",
       "Queries stopped mid-flight, by governance reason."},
      {"regal_safety_kernel_fallbacks_total",
       "Parallel kernels that fell back to sequential execution."},
      {"regal_storage_loads_total", "Snapshot loads, by format and outcome."},
      {"regal_storage_save_latency_ms",
       "Durable snapshot save latency in milliseconds."},
      {"regal_storage_load_latency_ms",
       "Snapshot load latency in milliseconds."},
      {"regal_storage_checksum_failures_total",
       "Snapshot reads rejected as kDataLoss, by kind."},
      {"regal_storage_bytes_written_total", "Bytes handed to storage writes."},
      {"regal_storage_fsyncs_total", "fsync/fdatasync calls issued."},
      {"regal_storage_commits_total", "Atomic snapshot commits (renames)."},
      {"regal_storage_write_failures_total", "Failed storage write protocols."},
      {"regal_storage_snapshot_bytes", "Size of the last committed snapshot."},
      {"regal_storage_orphan_tmp_recovered_total",
       "Orphaned temp files removed by Recover()."},
      {"regal_admin_accept_errors_total",
       "accept() failures on the admin endpoint's listener."},
      {"regal_server_connections_total", "Connections the service accepted."},
      {"regal_server_connections_active",
       "Connections the service is handling now."},
      {"regal_server_connections_rejected_total",
       "Accepted connections closed at the max_connections cap."},
      {"regal_server_accept_errors_total",
       "accept() failures on the service's listener."},
      {"regal_server_frame_errors_total",
       "Request frames refused, by kind (torn/oversized/bad_request)."},
      {"regal_server_bytes_received_total",
       "Request frame bytes read, headers included."},
      {"regal_server_bytes_sent_total",
       "Response frame bytes sent, headers included."},
      {"regal_server_inflight_response_bytes",
       "Response frame bytes being sent right now."},
      {"regal_server_requests_total",
       "Requests executed, by tenant and outcome."},
      {"regal_server_send_errors_total",
       "Response sends that failed (client gone or send timeout)."},
      {"regal_server_admission_rejects_total",
       "Requests refused by tenant governance, by reason."},
      {"regal_resilience_admitted_total",
       "Requests the CoDel admission controller gave a slot."},
      {"regal_resilience_queue_depth",
       "Requests waiting in the admission queue."},
      {"regal_resilience_sojourn_ms",
       "Admission-queue wait in milliseconds of requests that reached a "
       "free slot (admitted or CoDel-shed)."},
      {"regal_resilience_shed_total",
       "Requests refused by admission control or brownout, by reason."},
      {"regal_resilience_brownout_active",
       "1 while brownout serves cache-resident queries only, else 0."},
      {"regal_resilience_brownout_entries_total", "Times brownout began."},
      {"regal_resilience_watchdog_reaped_total",
       "Connections closed because a request frame missed its deadline."},
      {"regal_wal_records_total", "Records appended to the write-ahead log."},
      {"regal_wal_bytes_written_total",
       "Bytes written to the write-ahead log file."},
      {"regal_wal_syncs_total", "fsyncs of the write-ahead log."},
      {"regal_wal_size_bytes", "Size of the live write-ahead log file."},
      {"regal_recovery_opens_total",
       "Durable store opens, by outcome (clean/degraded)."},
      {"regal_recovery_open_latency_ms",
       "Durable store open (recovery) latency in milliseconds."},
      {"regal_recovery_replayed_records_total",
       "WAL records replayed over the snapshot at open."},
      {"regal_recovery_torn_bytes_total",
       "Torn WAL tail bytes truncated at open."},
      {"regal_recovery_quarantines_total",
       "Damaged files set aside as *.quarantine.<n>."},
      {"regal_recovery_salvaged_sections_total",
       "Damaged-snapshot sections salvage kept or dropped, by outcome."},
      {"regal_recovery_checkpoints_total", "Checkpoints, by outcome."},
      {"regal_recovery_retries_total",
       "Recovery-path I/O retries and failures, by outcome (retry/recovered/"
       "exhausted/permanent)."},
  };
  return *help;
}

std::string HelpFor(const std::string& name) {
  auto it = BuiltinHelp().find(name);
  if (it != BuiltinHelp().end()) return it->second;
  return "regal metric (no help registered)";
}

void AppendDouble(double value, std::string* out) {
  if (std::isnan(value)) {
    *out += "NaN";
  } else if (std::isinf(value)) {
    *out += value > 0 ? "+Inf" : "-Inf";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    *out += buf;
  }
}

// {k1="v1",k2="v2"} with escaped values; empty string for no labels. `extra`
// appends one more pair (the histogram `le` label) without copying the map.
void AppendLabels(const Labels& labels, const std::string* extra_key,
                  const std::string* extra_value, std::string* out) {
  if (labels.empty() && extra_key == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    *out += PrometheusEscapeLabel(v);
    *out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) *out += ',';
    *out += *extra_key;
    *out += "=\"";
    *out += PrometheusEscapeLabel(*extra_value);
    *out += '"';
  }
  *out += '}';
}

void AppendSample(const std::string& name, const Labels& labels, double value,
                  std::string* out) {
  *out += name;
  AppendLabels(labels, nullptr, nullptr, out);
  *out += ' ';
  AppendDouble(value, out);
  *out += '\n';
}

const char* KindName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string PrometheusEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PrometheusEscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MetricsToPrometheus(const std::vector<MetricSnapshot>& snapshot) {
  std::string out;
  const std::string* previous_family = nullptr;
  static const std::string kLe = "le";
  for (const MetricSnapshot& m : snapshot) {
    if (previous_family == nullptr || *previous_family != m.name) {
      out += "# HELP " + m.name + ' ' + PrometheusEscapeHelp(HelpFor(m.name)) +
             '\n';
      out += "# TYPE " + m.name + ' ' + KindName(m.kind) + '\n';
      previous_family = &m.name;
    }
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        AppendSample(m.name, m.labels, m.value, &out);
        break;
      case MetricSnapshot::Kind::kHistogram: {
        for (size_t i = 0; i < m.bucket_counts.size(); ++i) {
          std::string le;
          if (i < m.bucket_bounds.size()) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", m.bucket_bounds[i]);
            le = buf;
          } else {
            le = "+Inf";
          }
          out += m.name;
          out += "_bucket";
          AppendLabels(m.labels, &kLe, &le, &out);
          out += ' ';
          out += std::to_string(m.bucket_counts[i]);
          out += '\n';
        }
        AppendSample(m.name + "_sum", m.labels, m.sum, &out);
        out += m.name;
        out += "_count";
        AppendLabels(m.labels, nullptr, nullptr, &out);
        out += ' ';
        out += std::to_string(m.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace regal
