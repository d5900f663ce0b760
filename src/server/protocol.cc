#include "server/protocol.h"

#include <cstdlib>
#include <cstring>

#include "obs/json.h"
#include "server/net.h"

namespace regal {
namespace server {

std::string EncodeFrame(std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>(len & 0xff));
  frame.push_back(static_cast<char>((len >> 8) & 0xff));
  frame.push_back(static_cast<char>((len >> 16) & 0xff));
  frame.push_back(static_cast<char>((len >> 24) & 0xff));
  frame.append(payload);
  return frame;
}

FrameRead ReadFrame(int fd, uint32_t max_payload_bytes, std::string* payload,
                    int64_t deadline_ms) {
  unsigned char header[kFrameHeaderBytes];
  switch (net::RecvFull(fd, reinterpret_cast<char*>(header), sizeof(header))) {
    case net::RecvOutcome::kOk:
      break;
    case net::RecvOutcome::kClosed:
      return FrameRead::kClosed;
    case net::RecvOutcome::kTimeout:
      return FrameRead::kTimeout;
    case net::RecvOutcome::kTorn:
    case net::RecvOutcome::kExpired:  // No deadline on the header.
      return FrameRead::kTorn;
  }
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       (static_cast<uint32_t>(header[1]) << 8) |
                       (static_cast<uint32_t>(header[2]) << 16) |
                       (static_cast<uint32_t>(header[3]) << 24);
  // An over-limit length is indistinguishable from a corrupted prefix, and
  // either way skipping `len` bytes would trust the corruption; the caller
  // must close the connection.
  if (len > max_payload_bytes) return FrameRead::kOversized;
  payload->resize(len);
  if (len == 0) return FrameRead::kOk;
  // SO_RCVTIMEO resets on every byte, so a one-byte-per-tick trickler can
  // hold the payload read open forever; the deadline covers the *whole*
  // remainder of the frame.
  switch (net::RecvFull(fd, payload->data(), len, deadline_ms)) {
    case net::RecvOutcome::kOk:
      return FrameRead::kOk;
    case net::RecvOutcome::kTimeout:
      return FrameRead::kTimeout;
    case net::RecvOutcome::kExpired:
      return FrameRead::kExpired;
    default:
      // EOF inside a frame is torn whether 0 or n bytes of payload came.
      return FrameRead::kTorn;
  }
}

namespace {

/// Bounded-cursor scanner over the payload. Every accessor checks the
/// remaining length; running out of input is a parse error, never a read
/// past the buffer.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return Error("bad \\u escape");
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: require the paired low surrogate.
            uint32_t low = 0;
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired surrogate");
            }
            pos_ += 2;
            if (!ParseHex4(&low) || low < 0xdc00 || low > 0xdfff) {
              return Error("unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(double* out) {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    // Bounded copy for strtod: string_view is not NUL-terminated.
    std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) return Error("bad number");
    return Status::OK();
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = std::strlen(literal);
    if (text_.substr(pos_, len) != literal) return false;
    pos_ += len;
    return true;
  }

  Status Error(const char* what) const {
    return Status::InvalidArgument("protocol: " + std::string(what) +
                                   " at byte " + std::to_string(pos_));
  }

 private:
  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return false;
    }
    *out = value;
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Status ParseValue(Scanner* s, JsonValue* value) {
  s->SkipSpace();
  char c = s->Peek();
  if (c == '"') {
    value->kind = JsonValue::Kind::kString;
    return s->ParseString(&value->str);
  }
  if (c == '-' || (c >= '0' && c <= '9')) {
    value->kind = JsonValue::Kind::kNumber;
    return s->ParseNumber(&value->num);
  }
  if (c == 't' || c == 'f') {
    value->kind = JsonValue::Kind::kBool;
    value->boolean = (c == 't');
    if (!s->ConsumeLiteral(c == 't' ? "true" : "false")) {
      return s->Error("bad literal");
    }
    return Status::OK();
  }
  if (c == 'n') {
    value->kind = JsonValue::Kind::kNull;
    if (!s->ConsumeLiteral("null")) return s->Error("bad literal");
    return Status::OK();
  }
  if (c == '[') {
    s->Consume('[');
    value->kind = JsonValue::Kind::kStringArray;
    s->SkipSpace();
    if (s->Consume(']')) return Status::OK();
    for (;;) {
      s->SkipSpace();
      std::string element;
      REGAL_RETURN_NOT_OK(s->ParseString(&element));
      value->strings.push_back(std::move(element));
      s->SkipSpace();
      if (s->Consume(']')) return Status::OK();
      if (!s->Consume(',')) return s->Error("expected ',' or ']'");
    }
  }
  if (c == '{') return s->Error("nested objects not allowed");
  return s->Error("unexpected value");
}

}  // namespace

Status ParseFlatObject(std::string_view text,
                       std::map<std::string, JsonValue>* out) {
  out->clear();
  Scanner s(text);
  s.SkipSpace();
  if (!s.Consume('{')) return s.Error("expected '{'");
  s.SkipSpace();
  if (s.Consume('}')) {
    s.SkipSpace();
    return s.AtEnd() ? Status::OK() : s.Error("trailing bytes");
  }
  for (;;) {
    s.SkipSpace();
    std::string key;
    REGAL_RETURN_NOT_OK(s.ParseString(&key));
    s.SkipSpace();
    if (!s.Consume(':')) return s.Error("expected ':'");
    JsonValue value;
    REGAL_RETURN_NOT_OK(ParseValue(&s, &value));
    // Last key wins on duplicates, like every permissive JSON decoder.
    (*out)[std::move(key)] = std::move(value);
    s.SkipSpace();
    if (s.Consume('}')) break;
    if (!s.Consume(',')) return s.Error("expected ',' or '}'");
  }
  s.SkipSpace();
  return s.AtEnd() ? Status::OK() : s.Error("trailing bytes");
}

namespace {

Status TakeString(const std::map<std::string, JsonValue>& fields,
                  const std::string& key, bool required, std::string* out) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    if (required) {
      return Status::InvalidArgument("protocol: missing field '" + key + "'");
    }
    return Status::OK();
  }
  if (it->second.kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("protocol: field '" + key +
                                   "' must be a string");
  }
  *out = it->second.str;
  return Status::OK();
}

Status TakeNumber(const std::map<std::string, JsonValue>& fields,
                  const std::string& key, double* out) {
  auto it = fields.find(key);
  if (it == fields.end()) return Status::OK();
  if (it->second.kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("protocol: field '" + key +
                                   "' must be a number");
  }
  *out = it->second.num;
  return Status::OK();
}

}  // namespace

Result<Request> ParseRequest(std::string_view payload) {
  std::map<std::string, JsonValue> fields;
  REGAL_RETURN_NOT_OK(ParseFlatObject(payload, &fields));
  Request request;
  REGAL_RETURN_NOT_OK(TakeString(fields, "tenant", true, &request.tenant));
  REGAL_RETURN_NOT_OK(TakeString(fields, "instance", false, &request.instance));
  REGAL_RETURN_NOT_OK(TakeString(fields, "query", true, &request.query));
  if (request.tenant.empty()) {
    return Status::InvalidArgument("protocol: 'tenant' must be non-empty");
  }
  if (request.query.empty()) {
    return Status::InvalidArgument("protocol: 'query' must be non-empty");
  }
  double id = 0, limit = -1, priority = 0;
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "id", &id));
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "limit", &limit));
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "deadline_ms", &request.deadline_ms));
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "priority", &priority));
  request.id = static_cast<int64_t>(id);
  request.limit = static_cast<int64_t>(limit);
  request.priority = static_cast<int64_t>(priority);
  return request;
}

std::string RenderRequest(const Request& request) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("tenant").String(request.tenant);
  if (!request.instance.empty()) w.Key("instance").String(request.instance);
  w.Key("query").String(request.query);
  w.Key("id").Int(request.id);
  if (request.limit >= 0) w.Key("limit").Int(request.limit);
  if (request.deadline_ms > 0) w.Key("deadline_ms").Double(request.deadline_ms);
  if (request.priority != 0) w.Key("priority").Int(request.priority);
  w.EndObject();
  return w.Take();
}

std::string RenderResponse(const Response& response) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("id").Int(response.id);
  w.Key("ok").Bool(response.ok);
  w.Key("code").String(response.code);
  if (!response.message.empty()) w.Key("message").String(response.message);
  w.Key("row_count").Int(response.row_count);
  w.Key("rows").BeginArray();
  for (const std::string& row : response.rows) w.String(row);
  w.EndArray();
  w.Key("elapsed_ms").Double(response.elapsed_ms);
  if (response.retry_after_ms > 0) {
    w.Key("retry_after_ms").Double(response.retry_after_ms);
  }
  w.EndObject();
  return w.Take();
}

Result<Response> ParseResponse(std::string_view payload) {
  std::map<std::string, JsonValue> fields;
  REGAL_RETURN_NOT_OK(ParseFlatObject(payload, &fields));
  Response response;
  double id = 0, row_count = 0;
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "id", &id));
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "row_count", &row_count));
  REGAL_RETURN_NOT_OK(TakeNumber(fields, "elapsed_ms", &response.elapsed_ms));
  REGAL_RETURN_NOT_OK(
      TakeNumber(fields, "retry_after_ms", &response.retry_after_ms));
  REGAL_RETURN_NOT_OK(TakeString(fields, "code", false, &response.code));
  REGAL_RETURN_NOT_OK(TakeString(fields, "message", false, &response.message));
  response.id = static_cast<int64_t>(id);
  response.row_count = static_cast<int64_t>(row_count);
  auto ok_it = fields.find("ok");
  if (ok_it == fields.end() || ok_it->second.kind != JsonValue::Kind::kBool) {
    return Status::InvalidArgument("protocol: response missing 'ok'");
  }
  response.ok = ok_it->second.boolean;
  auto rows_it = fields.find("rows");
  if (rows_it != fields.end()) {
    if (rows_it->second.kind != JsonValue::Kind::kStringArray) {
      return Status::InvalidArgument("protocol: 'rows' must be an array");
    }
    response.rows = rows_it->second.strings;
  }
  return response;
}

}  // namespace server
}  // namespace regal
