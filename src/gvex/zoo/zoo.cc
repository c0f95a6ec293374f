#include "gvex/zoo/zoo.h"

#include <sstream>

#include "gvex/common/io_util.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace zoo {
namespace {

// Per-route score histograms want dynamic names, which the GVEX_*
// macros' cached-static lookup cannot provide.
void RecordScoreHistograms(const Scorecard& card) {
  if (!obs::Enabled()) return;
  auto bp = [](double v) {
    if (v < 0.0) v = 0.0;
    return static_cast<uint64_t>(v * 10000.0);
  };
  obs::Registry::Global()
      .GetHistogram("zoo.fidelity_plus_bp." + card.route)
      .Record(bp(card.fidelity_plus));
  obs::Registry::Global()
      .GetHistogram("zoo.accuracy_bp." + card.route)
      .Record(bp(card.accuracy));
}

}  // namespace

Status ZooManager::Configure(std::vector<ExplainerRouteConfig> configs) {
  std::map<std::string, ExplainerRouteConfig> table;
  for (auto& c : configs) {
    GVEX_RETURN_NOT_OK(ValidateRouteConfig(c));
    if (!table.emplace(c.route, std::move(c)).second) {
      return Status::InvalidArgument("zoo: duplicate route in config set");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  routes_ = std::move(table);
  return Status::OK();
}

Status ZooManager::ConfigureFromFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return Status::IoError("zoo: cannot open " + path);
  GVEX_ASSIGN_OR_RETURN(std::vector<ExplainerRouteConfig> configs,
                        ParseZooArtifact(*text));
  return Configure(std::move(configs));
}

Result<ExplainerRouteConfig> ZooManager::ConfigFor(
    const std::string& route) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(route);
  if (it == routes_.end()) {
    return Status::NotFound("zoo: no explainer bound to route '" + route +
                            "'");
  }
  return it->second;
}

std::vector<ExplainerRouteConfig> ZooManager::Configs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ExplainerRouteConfig> out;
  out.reserve(routes_.size());
  for (const auto& [_, c] : routes_) out.push_back(c);
  return out;
}

serve::Response ZooManager::Handle(const serve::Request& req,
                                   const CancellationToken* cancel) {
  // Form 1: install a gvexzoo-v1 artifact (publish --zoo's wire path).
  if (IsZooArtifact(req.text)) {
    auto configs = ParseZooArtifact(req.text);
    if (!configs.ok()) return serve::ErrorResponse(req.id, configs.status());
    const size_t count = configs->size();
    Status installed = Configure(std::move(*configs));
    if (!installed.ok()) return serve::ErrorResponse(req.id, installed);
    GVEX_COUNTER_INC("zoo.installs");
    serve::Response resp;
    resp.id = req.id;
    resp.text = "installed " + std::to_string(count) + " zoo routes";
    return resp;
  }

  // Form 2: list the configured bindings.
  if (req.text == "status") {
    serve::Response resp;
    resp.id = req.id;
    std::ostringstream out;
    for (const auto& c : Configs()) {
      out << "route " << c.route << " kind " << KindName(c.kind) << " seed "
          << c.seed << " budget_ms " << c.budget_ms << " max_nodes "
          << c.max_nodes << "\n";
    }
    resp.text = out.str();
    return resp;
  }

  // Form 3: evaluate `route` against the spec in text.
  auto config = ConfigFor(req.route.empty() ? std::string("default")
                                            : req.route);
  if (!config.ok()) {
    GVEX_COUNTER_INC("zoo.eval_failures");
    return serve::ErrorResponse(req.id, config.status());
  }
  auto spec = ParseEvalSpec(req.text);
  if (!spec.ok()) {
    GVEX_COUNTER_INC("zoo.eval_failures");
    return serve::ErrorResponse(req.id, spec.status());
  }
  // Prefer the zoo route's own served model; fall back to the default
  // route's so many explainer routes can A/B one published model.
  std::shared_ptr<const serve::LoadedViewSet> snapshot =
      registry_ == nullptr ? nullptr : registry_->Snapshot(config->route);
  if ((snapshot == nullptr || snapshot->model == nullptr) &&
      registry_ != nullptr) {
    snapshot = registry_->Snapshot(cluster::kDefaultRoute);
  }
  if (snapshot == nullptr || snapshot->model == nullptr) {
    GVEX_COUNTER_INC("zoo.eval_failures");
    return serve::ErrorResponse(
        req.id, Status::FailedPrecondition(
                    "zoo: route '" + config->route +
                    "' has no served model (publish one first)"));
  }
  std::vector<GraphScore> rows;
  auto card = EvaluateRoute(*config, *snapshot->model, *spec, cancel, &rows);
  if (!card.ok()) {
    GVEX_COUNTER_INC("zoo.eval_failures");
    return serve::ErrorResponse(req.id, card.status());
  }
  GVEX_COUNTER_INC("zoo.evaluations");
  GVEX_COUNTER_ADD("zoo.graphs_scored", card->graphs);
  RecordScoreHistograms(*card);
  serve::Response resp;
  resp.id = req.id;
  std::ostringstream out;
  for (const auto& row : rows) out << GraphScoreRow(row) << "\n";
  out << ScorecardToJson(*card) << "\n";
  resp.text = out.str();
  return resp;
}

}  // namespace zoo
}  // namespace gvex
