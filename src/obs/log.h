#ifndef REGAL_OBS_LOG_H_
#define REGAL_OBS_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.h"

namespace regal {
namespace obs {

enum class Severity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// "debug" / "info" / "warning" / "error".
const char* SeverityName(Severity severity);

/// Destination for structured log lines. Write receives one complete JSONL
/// record *without* a trailing newline; the sink appends its own framing.
/// Implementations must be safe to call from concurrent threads (EventLog
/// serializes calls through its own mutex, but a sink may be shared between
/// logs).
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(std::string_view line) = 0;
  virtual void Flush() {}
};

/// Appends lines to stderr (the default sink: always available, and the
/// conventional destination for service-side JSONL).
class StderrSink : public LogSink {
 public:
  void Write(std::string_view line) override;
  void Flush() override;
};

/// Buffers lines in memory — the test sink, and handy for /statusz-style
/// "recent events" rendering.
class CaptureSink : public LogSink {
 public:
  void Write(std::string_view line) override;
  std::vector<std::string> lines() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// One key/value pair attached to a structured record. Values are emitted
/// as JSON strings (callers stringify numbers; the schema favors uniformity
/// over typed fields).
struct LogField {
  std::string_view key;
  std::string value;
};

struct EventLogOptions {
  /// Records below this severity are dropped before rate limiting (and not
  /// counted as dropped).
  Severity min_severity = Severity::kInfo;
  /// Token-bucket rate limit: at most this many records per second, with a
  /// burst of the same size; 0 disables limiting. Drops are counted in
  /// dropped() and regal_log_dropped_total — a telemetry layer must not be
  /// able to take down the service it watches by out-writing the disk.
  int max_records_per_second = 1000;
};

/// The always-on structured event log: JSONL records of the shape
///
///   {"ts_ms":1717000000000,"severity":"warning","subsystem":"engine",
///    "query_id":42,"message":"slow query","fields":{"elapsed_ms":"12.8"}}
///
/// ts_ms is wall-clock milliseconds since the Unix epoch; query_id is 0 for
/// records not tied to a query. Thread-safe; one mutex serializes rate
/// limiting, encoding and the sink call. Emission is O(record size) with no
/// allocation beyond the line buffer — cheap enough for per-query events,
/// though per-region paths should stay silent.
class EventLog {
 public:
  explicit EventLog(std::shared_ptr<LogSink> sink = nullptr,
                    EventLogOptions options = {});

  /// The process-wide default log (stderr sink). The engine's slow-query log
  /// and subsystem warnings land here unless redirected.
  static EventLog& Default();

  void set_min_severity(Severity severity);

  void Log(Severity severity, std::string_view subsystem,
           std::string_view message, uint64_t query_id = 0,
           std::initializer_list<LogField> fields = {});

  /// Records dropped by the rate limiter since construction.
  int64_t dropped() const;

  void Flush();

 private:
  mutable std::mutex mu_;
  const std::shared_ptr<LogSink> sink_;  // Set once at construction.
  EventLogOptions options_;
  // Token bucket, refilled continuously against the steady clock.
  double tokens_ = 0;
  Timer refill_timer_;
  int64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace regal

#endif  // REGAL_OBS_LOG_H_
