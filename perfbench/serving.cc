#include "serving.h"

#include <unistd.h>

namespace perfbench {

using gvex::serve::Request;
using gvex::serve::RequestType;

ServeStack::~ServeStack() { Stop(); }

gvex::Status ServeStack::Start(gvex::ExplanationViewSet views,
                               std::shared_ptr<const gvex::GcnClassifier> model,
                               const std::string& socket_path) {
  GVEX_RETURN_NOT_OK(registry_.InstallViews(std::move(views)));
  registry_.InstallModel(std::move(model));
  registry_.WarmMatchCache();
  gvex::serve::ServerOptions options;
  options.num_workers = kServeWorkers;
  server_ = std::make_unique<gvex::serve::ExplanationServer>(&registry_,
                                                             options);
  GVEX_RETURN_NOT_OK(server_->Start());
  socket_ = std::make_unique<gvex::serve::SocketServer>(server_.get());
  endpoint_ = gvex::serve::Endpoint::Unix(socket_path);
  return socket_->Start(endpoint_);
}

void ServeStack::Stop() {
  if (socket_ != nullptr) socket_->Stop();
  if (server_ != nullptr) server_->Stop();
  socket_.reset();
  server_.reset();
}

std::vector<Request> MakePatternPool(
    const gvex::ExplanationViewSet& views,
    const std::vector<gvex::ClassLabel>& labels, uint64_t seed, size_t n) {
  std::vector<const gvex::Graph*> tier;
  for (const auto& view : views.views) {
    for (const auto& p : view.patterns) tier.push_back(&p);
  }
  gvex::Rng rng(seed);
  std::vector<Request> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Request req;
    req.label = labels[rng.NextBounded(labels.size())];
    switch (rng.NextBounded(4)) {
      case 0: req.type = RequestType::kSupport; break;
      case 1: req.type = RequestType::kSubgraphsContaining; break;
      case 2: req.type = RequestType::kFindHits; break;
      default: req.type = RequestType::kDiscriminativePatterns; break;
    }
    if (req.type == RequestType::kDiscriminativePatterns) {
      req.against = labels[(static_cast<size_t>(req.label) + 1 +
                            rng.NextBounded(labels.size() - 1)) %
                           labels.size()];
    } else {
      req.graph = *tier[rng.NextBounded(tier.size())];
      req.has_graph = true;
      req.max_embeddings = 8;
    }
    pool.push_back(std::move(req));
  }
  return pool;
}

Request ClassifyRequest(gvex::Graph graph) {
  Request req;
  req.type = RequestType::kClassifyExplain;
  req.graph = std::move(graph);
  req.has_graph = true;
  return req;
}

std::string Canonical(gvex::serve::Response resp) {
  resp.id = 0;
  return gvex::serve::EncodeResponseBody(resp);
}

bool Staircase::Accept(size_t slot, const std::string& body) {
  for (size_t g = current_; g < expected_->size(); ++g) {
    if ((*expected_)[g][slot] == body) {
      current_ = g;
      return true;
    }
  }
  return false;
}

std::string SocketPath(const Options& options, const char* leaf) {
  return options.work_dir + "/" + leaf + "_" + std::to_string(::getpid()) +
         ".sock";
}

}  // namespace perfbench
