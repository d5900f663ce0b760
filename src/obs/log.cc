#include "obs/log.h"

#include <chrono>
#include <cstdio>

#include "obs/json.h"
#include "obs/metrics.h"

namespace regal {
namespace obs {

namespace {

int64_t WallClockMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kDebug:
      return "debug";
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

void StderrSink::Write(std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fputc('\n', stderr);
}

void StderrSink::Flush() { std::fflush(stderr); }

void CaptureSink::Write(std::string_view line) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.emplace_back(line);
}

std::vector<std::string> CaptureSink::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void CaptureSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
}

EventLog::EventLog(std::shared_ptr<LogSink> sink, EventLogOptions options)
    : sink_(sink != nullptr ? std::move(sink)
                            : std::make_shared<StderrSink>()),
      options_(options),
      tokens_(static_cast<double>(options.max_records_per_second)) {}

EventLog& EventLog::Default() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::set_min_severity(Severity severity) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.min_severity = severity;
}

int64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void EventLog::Flush() { sink_->Flush(); }

void EventLog::Log(Severity severity, std::string_view subsystem,
                   std::string_view message, uint64_t query_id,
                   std::initializer_list<LogField> fields) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(severity) < static_cast<int>(options_.min_severity)) {
      return;
    }
    if (options_.max_records_per_second > 0) {
      const double limit =
          static_cast<double>(options_.max_records_per_second);
      tokens_ += refill_timer_.Seconds() * limit;
      refill_timer_.Reset();
      if (tokens_ > limit) tokens_ = limit;  // Burst cap == one second.
      if (tokens_ < 1.0) {
        ++dropped_;
        Registry::Default().GetCounter("regal_log_dropped_total")->Increment();
        return;
      }
      tokens_ -= 1.0;
    }
  }
  // Encode and emit outside the limiter lock's critical work? The sink may
  // be shared, and records must not interleave — keep encoding cheap and
  // call the sink without holding mu_ (sinks serialize themselves).
  JsonWriter w;
  w.BeginObject();
  w.Key("ts_ms").Int(WallClockMillis());
  w.Key("severity").String(SeverityName(severity));
  w.Key("subsystem").String(subsystem);
  if (query_id != 0) w.Key("query_id").Int(static_cast<int64_t>(query_id));
  w.Key("message").String(message);
  if (fields.size() > 0) {
    w.Key("fields").BeginObject();
    for (const LogField& field : fields) w.Key(field.key).String(field.value);
    w.EndObject();
  }
  w.EndObject();
  Registry::Default()
      .GetCounter("regal_log_records_total",
                  {{"severity", SeverityName(severity)}})
      ->Increment();
  sink_->Write(w.Take());
}

}  // namespace obs
}  // namespace regal
