// ZooManager (gvex::zoo): the explainer zoo behind serve routes. Holds
// the route → explainer-config table and answers kEvaluate requests,
// dispatched to it by the ExplanationServer's EvaluateHandler hook — so
// every evaluation rides the shared query queue and inherits admission,
// route quotas, deadlines, and cancellation unchanged.
//
// Three request forms share the kEvaluate wire type, told apart by the
// request text (the v1 evolution rule forbids new request fields):
//   * text = gvexzoo-v1 artifact  → replace the route-config table
//     (what `publish --zoo` sends to every target);
//   * text = "status"             → list configured zoo routes;
//   * anything else               → evaluate `route` against the eval
//     spec in text (empty = defaults); the response text streams
//     per-graph rows followed by the canonical scorecard JSON line.
//
// The model an evaluation explains with is the route's *served* model —
// the live ViewRegistry generation — so publish/fan-out and replication
// decide what the zoo scores, exactly like every other read. A zoo
// route with no model of its own falls back to the default route's, so
// several explainer routes can A/B one published model.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gvex/common/cancellation.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/view_registry.h"
#include "gvex/zoo/evaluator.h"
#include "gvex/zoo/route_config.h"

namespace gvex {
namespace zoo {

class ZooManager {
 public:
  /// `registry` supplies the served model per route; borrowed, must
  /// outlive the manager.
  explicit ZooManager(const serve::ViewRegistry* registry)
      : registry_(registry) {}

  /// Replace the whole route-config table (validated all-or-nothing).
  Status Configure(std::vector<ExplainerRouteConfig> configs);

  /// Read a gvexzoo-v1 artifact file and Configure from it.
  Status ConfigureFromFile(const std::string& path);

  /// The binding for `route`; kNotFound when none.
  Result<ExplainerRouteConfig> ConfigFor(const std::string& route) const;

  /// All configured bindings, sorted by route name.
  std::vector<ExplainerRouteConfig> Configs() const;

  /// Answer one kEvaluate request (install / status / evaluate). This is
  /// what `ExplanationServer::SetEvaluateHandler` is wired to; it runs on
  /// a worker thread and honors `cancel` between graphs.
  serve::Response Handle(const serve::Request& req,
                         const CancellationToken* cancel);

 private:
  const serve::ViewRegistry* registry_;
  mutable std::mutex mu_;
  std::map<std::string, ExplainerRouteConfig> routes_;
};

}  // namespace zoo
}  // namespace gvex
