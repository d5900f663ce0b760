#ifndef REGAL_SERVER_CLIENT_H_
#define REGAL_SERVER_CLIENT_H_

#include <string>

#include "server/protocol.h"
#include "util/status.h"

namespace regal {
namespace server {

/// Minimal blocking client for the query service wire protocol — the
/// in-repo counterpart of admin::HttpGet, used by the tests, bench_server
/// and tools/regal_loadgen. One Client is one connection; it is not
/// thread-safe (each concurrent caller opens its own).
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (IPv4 literals only, like HttpGet). `timeout_ms` bounds every
  /// subsequent send/recv.
  static Result<Client> Connect(const std::string& host, int port,
                                int timeout_ms = 5000);

  /// One request/response round trip. Transport failures are kInternal
  /// ("server closed connection", timeouts); protocol-level errors come
  /// back as an ok() Result whose Response has ok == false.
  Result<Response> Call(const Request& request);

  /// Sends raw bytes as-is (fuzzing and torn-frame tests).
  bool SendRaw(const std::string& bytes);

  /// Reads one response frame (paired with SendRaw for half-manual tests).
  Result<Response> ReadResponse();

  /// Closes the connection. `rst` forces an RST instead of FIN (SO_LINGER
  /// with zero timeout) — the chaos-client behavior that historically
  /// SIGPIPEd servers mid-response.
  void Close(bool rst = false);

  int fd() const { return fd_; }
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  uint32_t max_response_bytes_ = 64u << 20;
};

}  // namespace server
}  // namespace regal

#endif  // REGAL_SERVER_CLIENT_H_
