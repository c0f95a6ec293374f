#include "gvex/serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "gvex/common/failpoint.h"

namespace gvex {
namespace serve {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

// SIGPIPE must never escape the transport: a peer that dies mid-frame
// has to surface as a clean IoError Status, not kill the process. On
// Linux every send carries MSG_NOSIGNAL; platforms without it (macOS)
// suppress per-socket via SO_NOSIGPIPE instead.
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void DisableSigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

// Chaos shim: an armed "socket.<side>.<op>" failpoint injects socket-
// level faults into the real transport — error specs simulate a peer
// vanishing mid-frame (a partial prefix goes out, then the connection is
// hard-killed so the peer observes a short frame), delay specs simulate
// stalled reads/writes. See cluster/chaos.h for the scenario runner that
// drives these deterministically.
Status InjectSocketFault(int fd, const char* site, const char* data,
                         size_t size) {
  Status injected = failpoint::Check(site);
  if (injected.ok()) return injected;
  if (data != nullptr && size > 1) {
    // Best-effort partial prefix; the fault wins regardless of outcome.
    (void)!::send(fd, data, size / 2, kSendFlags);
  }
  ::shutdown(fd, SHUT_RDWR);
  return injected;
}

// Full-buffer send; a dead peer yields EPIPE instead of killing the
// process with SIGPIPE (kSendFlags / DisableSigpipe above).
Status WriteAll(int fd, const char* data, size_t size,
                const char* fault_site) {
  if (failpoint::AnyArmed()) {
    GVEX_RETURN_NOT_OK(InjectSocketFault(fd, fault_site, data, size));
  }
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Full-buffer recv; EOF mid-message and EOF at a frame boundary both
// surface as IoError (connection loops just stop on either).
Status ReadExact(int fd, char* data, size_t size, const char* fault_site) {
  if (failpoint::AnyArmed()) {
    GVEX_RETURN_NOT_OK(InjectSocketFault(fd, fault_site, nullptr, 0));
  }
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) return Status::IoError("peer closed connection");
      return Status::IoError("short frame: peer closed mid-message");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SendFrame(int fd, const std::string& body, bool client_side) {
  const std::string frame = FrameMessage(body);
  return WriteAll(fd, frame.data(), frame.size(),
                  client_side ? "socket.client.send" : "socket.server.send");
}

Status RecvFrame(int fd, std::string* body, bool client_side) {
  const char* site =
      client_side ? "socket.client.recv" : "socket.server.recv";
  char header[8];
  GVEX_RETURN_NOT_OK(ReadExact(fd, header, sizeof(header), site));
  uint32_t crc = 0;
  GVEX_ASSIGN_OR_RETURN(const uint32_t len, ParseFrameHeader(header, &crc));
  body->resize(len);
  if (len > 0) GVEX_RETURN_NOT_OK(ReadExact(fd, body->data(), len, site));
  return VerifyFrameBody(*body, crc);
}

Result<int> ListenUnix(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // replace a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Errno("bind(" + path + ")");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st = Errno("listen");
    ::close(fd);
    ::unlink(path.c_str());
    return st;
  }
  return fd;
}

Result<int> ListenTcp(uint16_t port, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a public bind
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Errno("bind(127.0.0.1:" + std::to_string(port) + ")");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  sockaddr_in got;
  socklen_t got_len = sizeof(got);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &got_len) == 0) {
    *bound_port = ntohs(got.sin_port);
  } else {
    *bound_port = port;
  }
  return fd;
}

Result<int> ConnectEndpoint(const Endpoint& endpoint) {
  // Chaos shim: connection refusal without needing a dead endpoint.
  GVEX_FAILPOINT_RETURN("socket.client.connect");
  if (endpoint.is_unix()) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     endpoint.unix_path);
    }
    std::memcpy(addr.sun_path, endpoint.unix_path.c_str(),
                endpoint.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const Status st = Errno("connect(" + endpoint.unix_path + ")");
      ::close(fd);
      return st;
    }
    DisableSigpipe(fd);
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoint.tcp_port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st =
        Errno("connect(127.0.0.1:" + std::to_string(endpoint.tcp_port) + ")");
    ::close(fd);
    return st;
  }
  DisableSigpipe(fd);
  return fd;
}

}  // namespace

std::string Endpoint::ToString() const {
  if (is_unix()) return "unix:" + unix_path;
  return "tcp:127.0.0.1:" + std::to_string(tcp_port);
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start(const Endpoint& endpoint) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("socket server already started");
  }
  if (endpoint.is_unix()) {
    GVEX_ASSIGN_OR_RETURN(listen_fd_, ListenUnix(endpoint.unix_path));
    unix_path_ = endpoint.unix_path;
  } else {
    GVEX_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(endpoint.tcp_port,
                                                &bound_port_));
  }
  stopping_.store(false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    accept_done_ = false;
    accept_joined_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  accept_done_cv_.wait(lock, [this] { return accept_done_; });
}

void SocketServer::Stop() {
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    // shutdown() wakes a blocked accept(); close alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  bool join_accept = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (accept_thread_.joinable() && !accept_joined_) {
      accept_joined_ = true;
      join_accept = true;
    }
  }
  if (join_accept) accept_thread_.join();
  // Connection threads are joined before the listener closes: a kShutdown
  // reply still calls shutdown() on listen_fd_, which must not hit a
  // descriptor number the process has reused meanwhile.
  std::vector<std::unique_ptr<Connection>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims.swap(connections_);
  }
  for (auto& conn : victims) {
    ::shutdown(conn->fd, SHUT_RDWR);  // unblock a reading connection thread
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

void SocketServer::ReapFinishedLocked() {
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->done.load()) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      ::close(connections_[i]->fd);
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
    } else {
      ++i;
    }
  }
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable) — exit the loop
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    DisableSigpipe(fd);
    std::lock_guard<std::mutex> lock(mu_);
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      ServeConnection(raw->fd);
      raw->done.store(true);
    });
    connections_.push_back(std::move(conn));
  }
  std::lock_guard<std::mutex> lock(mu_);
  accept_done_ = true;
  accept_done_cv_.notify_all();
}

void SocketServer::ServeConnection(int fd) {
  std::string body;
  while (!stopping_.load()) {
    const Status read = RecvFrame(fd, &body, /*client_side=*/false);
    if (!read.ok()) break;  // peer closed, corrupt frame, or shutdown
    // Frame boundaries are intact, so a malformed body is answered in
    // place and the connection stays usable.
    Result<Request> decoded = DecodeRequestBody(body);
    const Response resp = decoded.ok() ? handler_(*decoded)
                                       : ErrorResponse(0, decoded.status());
    const bool is_shutdown =
        decoded.ok() && decoded->type == RequestType::kShutdown;
    if (!SendFrame(fd, EncodeResponseBody(resp), /*client_side=*/false).ok())
      break;
    if (is_shutdown) {
      stopping_.store(true);
      ::shutdown(listen_fd_, SHUT_RDWR);  // wake accept() so Wait() returns
      break;
    }
  }
}

SocketClient::~SocketClient() { Close(); }

Status SocketClient::Connect(const Endpoint& endpoint) {
  if (fd_ >= 0) return Status::FailedPrecondition("client already connected");
  GVEX_ASSIGN_OR_RETURN(fd_, ConnectEndpoint(endpoint));
  return Status::OK();
}

Result<Response> SocketClient::Call(const Request& req) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  GVEX_RETURN_NOT_OK(SendFrame(fd_, EncodeRequestBody(req),
                               /*client_side=*/true));
  std::string body;
  GVEX_RETURN_NOT_OK(RecvFrame(fd_, &body, /*client_side=*/true));
  return DecodeResponseBody(body);
}

void SocketClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace serve
}  // namespace gvex
