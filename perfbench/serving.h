// Shared pieces of the two serving workloads: the server stack (registry,
// ExplanationServer, Unix-socket SocketServer), the seeded read mix, and
// the canonical encoding answers are compared in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "gvex/common/rng.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace perfbench {

/// Server-side worker threads (ServerOptions defaults otherwise: the
/// MatchCache on, default micro-batching and queue bound).
inline constexpr size_t kServeWorkers = 4;

/// One pattern query in four: the rest are classify-and-explain requests.
inline constexpr uint64_t kClassifyOneIn = 4;

/// A registry served by an ExplanationServer behind a Unix socket.
/// Members are torn down socket first, so no request outlives its server.
class ServeStack {
 public:
  ServeStack() = default;
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Install `views` and `model`, warm the MatchCache, start serving at
  /// `socket_path`.
  gvex::Status Start(gvex::ExplanationViewSet views,
                     std::shared_ptr<const gvex::GcnClassifier> model,
                     const std::string& socket_path);
  void Stop();

  gvex::serve::ViewRegistry& registry() { return registry_; }
  gvex::serve::ExplanationServer& server() { return *server_; }
  const gvex::serve::Endpoint& endpoint() const { return endpoint_; }

 private:
  gvex::serve::ViewRegistry registry_;
  std::unique_ptr<gvex::serve::ExplanationServer> server_;
  std::unique_ptr<gvex::serve::SocketServer> socket_;
  gvex::serve::Endpoint endpoint_;
};

/// `n` seeded pattern queries over the served pattern tier: support,
/// subgraphs-containing, find-hits and discriminative, in equal shares.
std::vector<gvex::serve::Request> MakePatternPool(
    const gvex::ExplanationViewSet& views,
    const std::vector<gvex::ClassLabel>& labels, uint64_t seed, size_t n);

gvex::serve::Request ClassifyRequest(gvex::Graph graph);

/// The response body with the echoed request id zeroed: what two answers
/// to the same question must agree on byte for byte.
std::string Canonical(gvex::serve::Response resp);

/// Checks a reader's answers against in-process answers per generation:
/// `expected[g][slot]` is the canonical answer to slot `slot` while
/// generation g is served. An answer is accepted when it equals the answer
/// of the reader's current generation or of a later one, which then becomes
/// current, so a reader that saw a swap can never see the old generation
/// again. With one generation this is plain byte equality.
class Staircase {
 public:
  explicit Staircase(const std::vector<std::vector<std::string>>* expected)
      : expected_(expected) {}
  bool Accept(size_t slot, const std::string& body);
  size_t generation() const { return current_; }

 private:
  const std::vector<std::vector<std::string>>* expected_;
  size_t current_ = 0;
};

/// Socket path under the work dir, unique to this process.
std::string SocketPath(const Options& options, const char* leaf);

}  // namespace perfbench
