#ifndef REGAL_OBS_EXPORT_H_
#define REGAL_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace regal {
namespace obs {

/// Human-readable rendering of a span tree, one node per line:
///
///   within  rows=120  cmp=4096  merge=5120  est=96  0.214 ms
///   ├─ scan sense  rows=4096
///   └─ scan entry  rows=1024
///
/// Zero-valued counters and unset estimates are omitted; cached nodes print
/// `(memo)`. Timing lines are omitted for un-executed (EXPLAIN-only) plans,
/// where dur_us is exactly 0.
std::string FormatSpanTree(const Span& span);

/// The span tree as a JSON document (nested objects mirroring the tree).
std::string SpanToJson(const Span& span);

class JsonWriter;

/// Streams one span subtree into an already-open JsonWriter, for callers
/// embedding the plan inside a larger document (the query-profile envelope).
void WriteSpanJson(const Span& span, JsonWriter* w);

/// The span tree in chrome://tracing "traceEvents" format (complete events,
/// microsecond timestamps) — load in chrome://tracing or Perfetto.
std::string SpanToChromeTrace(const Span& span);

/// A metric snapshot list as a JSON document: {"metrics": [...]} with one
/// object per metric carrying name, labels and the kind-specific payload.
std::string MetricsToJson(const std::vector<MetricSnapshot>& snapshot);

}  // namespace obs
}  // namespace regal

#endif  // REGAL_OBS_EXPORT_H_
