#ifndef REGAL_SERVER_PROTOCOL_H_
#define REGAL_SERVER_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace regal {
namespace server {

/// The query service wire protocol: length-prefixed binary frames, each
/// carrying one JSON line.
///
///   +----------------+----------------------------------+
///   | u32 LE length  |  payload: one UTF-8 JSON object  |
///   +----------------+----------------------------------+
///
/// A connection is a persistent sequence of request frames answered in
/// order by response frames. The length prefix makes framing trivial for
/// clients in any language; the JSON payload keeps the message schema
/// self-describing and diffable in packet captures. Because a corrupted
/// length prefix desynchronizes the stream permanently, any framing error
/// (oversized, torn) closes the connection — there is no resync.
///
/// Request object (flat; unknown keys are ignored for forward compat):
///   {"tenant": "team-a",          required — quota accounting identity
///    "instance": "corpus1",       optional when exactly one is hosted
///    "query": "para within sec",  required — region algebra text
///    "id": 7,                     optional, echoed verbatim in response
///    "limit": 10,                 optional row-render cap (-1: default)
///    "deadline_ms": 50,           optional per-request deadline; the
///                                 effective deadline is the tighter of
///                                 this and the tenant quota's
///    "priority": 1}               optional; <= 0 (default) is sheddable
///                                 under overload, >= 1 is shed only when
///                                 the admission queue is full
///
/// Response object:
///   {"id": 7, "ok": true, "code": "OK", "row_count": 3,
///    "rows": ["[0, 12) ..."], "elapsed_ms": 0.21}
/// or on error:
///   {"id": 7, "ok": false, "code": "RESOURCE_EXHAUSTED",
///    "message": "tenant over fair share", "row_count": 0,
///    "rows": [], "elapsed_ms": 0}
/// Shed requests carry code "OVERLOADED" plus "retry_after_ms", the
/// server's backoff hint: a client should wait at least that long.

/// Frame length prefix size (u32 little-endian payload byte count).
constexpr size_t kFrameHeaderBytes = 4;

/// Prepends the length prefix.
std::string EncodeFrame(std::string_view payload);

/// Outcome of reading one frame off a socket.
enum class FrameRead {
  kOk,         ///< Payload filled.
  kClosed,     ///< Clean EOF at a frame boundary.
  kTorn,       ///< Peer vanished mid-frame.
  kOversized,  ///< Declared length exceeds the cap; stream unrecoverable.
  kTimeout,    ///< Socket receive timeout expired (idle peer).
  kExpired,    ///< The payload missed the frame deadline; stream abandoned.
};

/// Reads one length-prefixed frame from `fd`. On kOversized the declared
/// length was > `max_payload_bytes` and nothing further was read. With
/// `deadline_ms` > 0 a peer that sent a header owes the whole payload
/// within that long, or the read returns kExpired — byte-tricklers that
/// keep resetting SO_RCVTIMEO cannot hold the reading thread.
FrameRead ReadFrame(int fd, uint32_t max_payload_bytes, std::string* payload,
                    int64_t deadline_ms = 0);

/// A scalar-or-string-array JSON value — everything the wire protocol
/// needs. Nested objects / mixed arrays are rejected at parse.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull, kStringArray };
  Kind kind = Kind::kNull;
  std::string str;
  double num = 0;
  bool boolean = false;
  std::vector<std::string> strings;
};

/// Parses a flat JSON object: string keys, values that are strings,
/// numbers, booleans, null, or arrays of strings. Built to face the
/// network: malformed input of any shape returns kInvalidArgument, never
/// crashes, and never reads past `text`.
Status ParseFlatObject(std::string_view text,
                       std::map<std::string, JsonValue>* out);

struct Request {
  std::string tenant;
  std::string instance;
  std::string query;
  int64_t id = 0;
  int64_t limit = -1;        // < 0: service default.
  double deadline_ms = 0;    // <= 0: none beyond the tenant quota's.
  int64_t priority = 0;      // <= 0: sheddable first under overload.
};

/// Validates required fields (tenant, query) and types.
Result<Request> ParseRequest(std::string_view payload);
std::string RenderRequest(const Request& request);

struct Response {
  int64_t id = 0;
  bool ok = false;
  std::string code = "OK";   // StatusCodeToString rendering.
  std::string message;       // Error detail; empty on success.
  int64_t row_count = 0;     // Total result regions (not capped by limit).
  std::vector<std::string> rows;
  double elapsed_ms = 0;
  double retry_after_ms = 0; // > 0 on OVERLOADED: server's backoff hint.
};

std::string RenderResponse(const Response& response);
/// Client-side decode of a response frame payload.
Result<Response> ParseResponse(std::string_view payload);

}  // namespace server
}  // namespace regal

#endif  // REGAL_SERVER_PROTOCOL_H_
