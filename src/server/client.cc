#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/net.h"

namespace regal {
namespace server {

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      max_response_bytes_(other.max_response_bytes_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    max_response_bytes_ = other.max_response_bytes_;
  }
  return *this;
}

Result<Client> Client::Connect(const std::string& host, int port,
                               int timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("client: socket() failed: ") +
                            std::strerror(errno));
  }
  net::SetSocketTimeouts(fd, timeout_ms);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("client: bad host '" + host +
                                   "' (IPv4 literals only)");
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal("client: cannot connect to " + host +
                                     ":" + std::to_string(port) + ": " +
                                     std::strerror(errno));
    close(fd);
    return status;
  }
  Client client;
  client.fd_ = fd;
  return client;
}

Result<Response> Client::Call(const Request& request) {
  if (!SendRaw(EncodeFrame(RenderRequest(request)))) {
    return Status::Internal(std::string("client: send failed: ") +
                            std::strerror(errno));
  }
  return ReadResponse();
}

bool Client::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return false;
  return net::SendAll(fd_, bytes);
}

Result<Response> Client::ReadResponse() {
  if (fd_ < 0) return Status::Internal("client: not connected");
  std::string payload;
  switch (ReadFrame(fd_, max_response_bytes_, &payload)) {
    case FrameRead::kOk:
      return ParseResponse(payload);
    case FrameRead::kClosed:
      return Status::Internal("client: server closed connection");
    case FrameRead::kTimeout:
    case FrameRead::kExpired:
      return Status::DeadlineExceeded("client: response timed out");
    case FrameRead::kTorn:
      return Status::Internal("client: connection torn mid-response");
    case FrameRead::kOversized:
      return Status::Internal("client: oversized response frame");
  }
  return Status::Internal("client: unreachable");
}

void Client::Close(bool rst) {
  if (fd_ < 0) return;
  if (rst) {
    // Zero-timeout linger: close() sends RST, discarding queued data — the
    // abrupt-disconnect behavior the SIGPIPE regression tests need.
    struct linger hard = {1, 0};
    setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
  close(fd_);
  fd_ = -1;
}

}  // namespace server
}  // namespace regal
