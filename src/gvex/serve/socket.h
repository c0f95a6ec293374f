// Socket transport for the serving tier: length-prefixed frames (see
// protocol.h) over a Unix-domain or loopback TCP stream.
//
// SocketServer owns the listening socket plus one accept thread and one
// thread per live connection; every decoded request is handed to the
// configured handler — normally an ExplanationServer, so admission
// control, batching, and deadlines apply identically to wire and
// in-process clients, or a ShardRouter fronting a whole fleet. A kShutdown request is
// acknowledged on its own connection and then tears the listener down;
// Wait() unblocks once the accept loop exits.
//
// SocketClient is the matching blocking client: Connect once, then
// Call() per request (one frame out, one frame in). Both ends verify
// the frame CRC and cap frame length at kMaxFrameBytes, so a corrupt or
// hostile peer produces a clean IoError instead of an over-allocation.
// A peer that dies mid-frame surfaces as a clean Status, never SIGPIPE
// (MSG_NOSIGNAL per send, SO_NOSIGPIPE where that flag is missing).
//
// Chaos failpoints (tools/chaos/chaos.h drives them): "socket.client.connect"
// injects connection refusal; "socket.{client,server}.{send,recv}" with an
// error spec simulates a peer vanishing mid-frame (partial prefix, then a
// hard connection kill) and with a delay spec a stalled read/write.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"

namespace gvex {
namespace serve {

/// \brief Where to listen or connect: a Unix socket path, or a TCP port
/// on 127.0.0.1 (the server never binds a public interface).
struct Endpoint {
  std::string unix_path;  ///< used when non-empty
  uint16_t tcp_port = 0;  ///< used when unix_path is empty

  static Endpoint Unix(std::string path) {
    Endpoint ep;
    ep.unix_path = std::move(path);
    return ep;
  }
  static Endpoint Tcp(uint16_t port) {
    Endpoint ep;
    ep.tcp_port = port;
    return ep;
  }
  bool is_unix() const { return !unix_path.empty(); }
  std::string ToString() const;
};

class SocketServer {
 public:
  /// Answers every decoded request. The transport is handler-agnostic:
  /// an ExplanationServer serves the query engine, a ShardRouter
  /// (gvex/cluster/router.h) serves a whole fleet behind one socket.
  using Handler = std::function<Response(const Request&)>;

  explicit SocketServer(ExplanationServer* server)
      : handler_([server](const Request& req) { return server->Call(req); }) {}
  explicit SocketServer(Handler handler) : handler_(std::move(handler)) {}
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind + listen + spawn the accept thread. For TCP with port 0 the
  /// kernel picks a free port; bound_port() reports it.
  Status Start(const Endpoint& endpoint);

  /// Block until a kShutdown request (or Stop) closes the listener.
  void Wait();

  /// Close the listener and every live connection, join all threads.
  /// Idempotent.
  void Stop();

  uint16_t bound_port() const { return bound_port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  void ReapFinishedLocked();

  Handler handler_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::string unix_path_;  // unlinked on Stop
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable accept_done_cv_;
  bool accept_done_ = false;
  bool accept_joined_ = false;
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<Connection>> connections_;
};

class SocketClient {
 public:
  SocketClient() = default;
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  Status Connect(const Endpoint& endpoint);

  /// One request/response exchange. Transport or codec failures surface
  /// as the error status; server-side failures arrive as a Response
  /// whose code/message carry the server's status (resp.ok() == false).
  Result<Response> Call(const Request& req);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace serve
}  // namespace gvex
