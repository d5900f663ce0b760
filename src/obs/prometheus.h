#ifndef REGAL_OBS_PROMETHEUS_H_
#define REGAL_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace regal {
namespace obs {

/// Escapes a label *value* for the Prometheus text exposition format:
/// backslash, double quote and newline become \\ \" \n. All other bytes —
/// including non-ASCII UTF-8 sequences — pass through unchanged, as the
/// format requires.
std::string PrometheusEscapeLabel(std::string_view value);

/// Escapes `# HELP` text: backslash and newline only (quotes are legal
/// there).
std::string PrometheusEscapeHelp(std::string_view text);

/// A metric snapshot list in the Prometheus text exposition format
/// (version 0.0.4): one `# HELP` + `# TYPE` header per family, counters and
/// gauges as single samples, histograms expanded into cumulative
/// `_bucket{le="..."}` samples plus `_sum` and `_count`. Families arrive
/// grouped because Registry::Snapshot() is sorted by name; samples of one
/// family stay consecutive as the format demands.
///
/// Serve with content type `text/plain; version=0.0.4; charset=utf-8`
/// (admin/admin_server.cc does).
std::string MetricsToPrometheus(const std::vector<MetricSnapshot>& snapshot);

}  // namespace obs
}  // namespace regal

#endif  // REGAL_OBS_PROMETHEUS_H_
