#include "gvex/cluster/router.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "gvex/obs/obs.h"

namespace gvex {
namespace cluster {

namespace serve = gvex::serve;
using serve::ErrorResponse;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::RouterPlan;
using serve::ViewCoverage;

namespace {

std::string RouteOf(const Request& req) {
  return req.route.empty() ? kDefaultRoute : req.route;
}

/// Why a contains answer cannot be translated to corpus-global ranks.
Status NoShardInfo(const Status& cause) {
  return Status::FailedPrecondition(
      "cannot globalize subgraph positions (shard-info scatter failed: " +
      cause.message() + ")");
}

/// A leg answered usably when the transport succeeded; a server-side
/// error code is a definitive answer (the shard is up and said no), not
/// a reason to treat the shard as missing.
bool LegUsable(const Result<Response>& leg) { return leg.ok(); }

/// Fleet-wide coverage rows from the shard answers `from`, keyed by
/// label: counts and explainability sum, pattern-tier sizes do not
/// (tiers are replicated to every shard), covered graph ids merge
/// ascending.
std::map<ClassLabel, ViewCoverage> MergeCoverage(
    const std::vector<Result<Response>>& legs,
    const std::vector<size_t>& from) {
  std::map<ClassLabel, ViewCoverage> merged;
  for (size_t i : from) {
    for (const ViewCoverage& row : legs[i]->coverage) {
      ViewCoverage& m = merged[row.label];
      m.label = row.label;
      m.patterns = std::max(m.patterns, row.patterns);
      m.subgraphs += row.subgraphs;
      m.nodes += row.nodes;
      m.edges += row.edges;
      m.explainability += row.explainability;
      m.graph_indices.insert(m.graph_indices.end(), row.graph_indices.begin(),
                             row.graph_indices.end());
    }
  }
  for (auto& [label, row] : merged) {
    std::sort(row.graph_indices.begin(), row.graph_indices.end());
  }
  return merged;
}

}  // namespace

Result<serve::Endpoint> ParseEndpointSpec(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    std::string path = spec.substr(5);
    if (path.empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + spec +
                                     "'");
    }
    return serve::Endpoint::Unix(std::move(path));
  }
  std::string port_str = spec;
  if (spec.rfind("tcp:", 0) == 0) port_str = spec.substr(4);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port_str.empty() || port <= 0 ||
      port > 65535) {
    return Status::InvalidArgument(
        "bad endpoint '" + spec + "' (want unix:PATH, tcp:PORT, or a port)");
  }
  return serve::Endpoint::Tcp(static_cast<uint16_t>(port));
}

// ---- channels ---------------------------------------------------------------

SocketShardChannel::SocketShardChannel(serve::Endpoint primary,
                                       bool standby_set,
                                       serve::Endpoint standby)
    : primary_(std::move(primary)),
      standby_(std::move(standby)),
      has_standby_(standby_set) {}

Result<Response> SocketShardChannel::Call(const Request& req) {
  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(primary_));
  return client.Call(req);
}

Result<Response> SocketShardChannel::CallStandby(const Request& req) {
  if (!has_standby_) return Status::FailedPrecondition("shard has no standby");
  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(standby_));
  return client.Call(req);
}

Result<Response> LocalShardChannel::Call(const Request& req) {
  return primary_->Call(req);
}

Result<Response> LocalShardChannel::CallStandby(const Request& req) {
  if (standby_ == nullptr) {
    return Status::FailedPrecondition("shard has no standby");
  }
  return standby_->Call(req);
}

// ---- router -----------------------------------------------------------------

/// Per-route translation table built from a full kShardInfo scatter.
/// A merged row's graph ids are the label's corpus-wide covered-graph
/// list in ascending graph-index order — the same order a union server's
/// view.subgraphs carries (the explain pipeline sorts subgraph tiers by
/// graph index) — and `shard_to_global[shard]` maps each shard-local
/// subgraph position to its rank in that list.
struct ShardRouter::RouteIndex {
  struct LabelIndex {
    std::vector<std::vector<uint64_t>> shard_to_global;
  };
  std::map<ClassLabel, LabelIndex> labels;
  std::vector<ViewCoverage> merged;  ///< fleet-wide kShardInfo rows

  /// Rewrite `shard`'s local subgraph positions of `label` in place as
  /// corpus-global ranks.
  Status Globalize(ClassLabel label, size_t shard,
                   std::vector<uint64_t>* positions) const {
    auto it = labels.find(label);
    for (uint64_t& idx : *positions) {
      if (it == labels.end() ||
          idx >= it->second.shard_to_global[shard].size()) {
        return Status::Internal(
            "stale shard-info table (republished views? restart the "
            "frontend)");
      }
      idx = it->second.shard_to_global[shard][idx];
    }
    return Status::OK();
  }
};

ShardRouter::ShardRouter(ShardMap map,
                         std::vector<std::unique_ptr<ShardChannel>> channels,
                         RouterOptions options)
    : map_(std::move(map)),
      channels_(std::move(channels)),
      options_(options) {}

ShardRouter::~ShardRouter() {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  for (auto& task : tasks_) {
    if (task->thread.joinable()) task->thread.join();
  }
}

void ShardRouter::Detach(std::function<void()> fn) {
  auto task = std::make_unique<Task>();
  Task* raw = task.get();
  task->thread = std::thread([fn = std::move(fn), raw] {
    fn();
    raw->done.store(true);
  });
  std::lock_guard<std::mutex> lock(tasks_mu_);
  // Reap finished losers so a long-lived router does not accumulate
  // joinable threads.
  for (auto& t : tasks_) {
    if (t->done.load() && t->thread.joinable()) t->thread.join();
  }
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [](const std::unique_ptr<Task>& t) {
                                return !t->thread.joinable();
                              }),
               tasks_.end());
  tasks_.push_back(std::move(task));
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::string ShardRouter::StatsJson() const {
  const RouterStats s = stats();
  std::ostringstream out;
  out << "{\"router\":{"
      << "\"shards\":" << channels_.size() << ","
      << "\"map_version\":" << map_.version() << ","
      << "\"point_queries\":" << s.point_queries << ","
      << "\"scatter_queries\":" << s.scatter_queries << ","
      << "\"hedges_fired\":" << s.hedges_fired << ","
      << "\"hedge_wins\":" << s.hedge_wins << ","
      << "\"failovers\":" << s.failovers << ","
      << "\"partial_results\":" << s.partial_results << ","
      << "\"shard_errors\":" << s.shard_errors << "}}";
  return std::move(out).str();
}

Result<Response> ShardRouter::HedgedCall(size_t shard, Request req) {
  ShardChannel* channel = channels_[shard].get();
  if (options_.shard_deadline_ms > 0 &&
      (req.deadline_ms == 0 || req.deadline_ms > options_.shard_deadline_ms)) {
    req.deadline_ms = options_.shard_deadline_ms;
  }

  struct LegState {
    std::mutex mu;
    std::condition_variable cv;
    bool primary_done = false;
    bool standby_done = false;
    Result<Response> primary{Status::Internal("pending")};
    Result<Response> standby{Status::Internal("pending")};
  };
  auto state = std::make_shared<LegState>();
  Detach([channel, req, state] {
    Result<Response> r = channel->Call(req);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->primary = std::move(r);
      state->primary_done = true;
    }
    state->cv.notify_all();
  });

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const bool bounded = options_.shard_deadline_ms > 0;
  // Grace past the server-side deadline so a shard's own clean Timeout
  // response wins over a client-side cutoff.
  const auto wall_deadline =
      start + std::chrono::milliseconds(options_.shard_deadline_ms + 100);
  const bool can_hedge = channel->has_standby();

  std::unique_lock<std::mutex> lock(state->mu);
  if (can_hedge && options_.hedge_ms > 0) {
    state->cv.wait_until(lock,
                         start + std::chrono::milliseconds(options_.hedge_ms),
                         [&] { return state->primary_done; });
  } else if (bounded) {
    state->cv.wait_until(lock, wall_deadline,
                         [&] { return state->primary_done; });
  } else {
    state->cv.wait(lock, [&] { return state->primary_done; });
  }

  if (state->primary_done) {
    if (state->primary.ok() || !can_hedge) return state->primary;
    // Fast primary failure (connection refused, peer died): fail over
    // to the standby synchronously.
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.failovers;
    }
    GVEX_COUNTER_INC("router.failovers");
    lock.unlock();
    Result<Response> standby = channel->CallStandby(req);
    if (standby.ok()) return standby;
    lock.lock();
    return state->primary;
  }

  if (!can_hedge) {
    GVEX_COUNTER_INC("router.shard_timeouts");
    return Status::Timeout("shard answered nothing within the deadline");
  }

  // The primary is silent past hedge_ms: fire the standby, first usable
  // answer wins. The loser keeps running and is joined by the reaper.
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.hedges_fired;
  }
  GVEX_COUNTER_INC("router.hedges_fired");
  Detach([channel, req, state] {
    Result<Response> r = channel->CallStandby(req);
    {
      std::lock_guard<std::mutex> lock2(state->mu);
      state->standby = std::move(r);
      state->standby_done = true;
    }
    state->cv.notify_all();
  });

  for (;;) {
    auto answered = [&] {
      return (state->primary_done && state->primary.ok()) ||
             (state->standby_done && state->standby.ok()) ||
             (state->primary_done && state->standby_done);
    };
    if (bounded) {
      if (!state->cv.wait_until(lock, wall_deadline, answered)) {
        GVEX_COUNTER_INC("router.shard_timeouts");
        return Status::Timeout("shard answered nothing within the deadline");
      }
    } else {
      state->cv.wait(lock, answered);
    }
    if (state->primary_done && state->primary.ok()) return state->primary;
    if (state->standby_done && state->standby.ok()) {
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.hedge_wins;
      }
      GVEX_COUNTER_INC("router.hedge_wins");
      return state->standby;
    }
    if (state->primary_done && state->standby_done) {
      return state->primary;  // both failed; primary's error is canonical
    }
  }
}

Result<std::shared_ptr<const ShardRouter::RouteIndex>>
ShardRouter::ShardInfoFor(const std::string& route) {
  {
    std::lock_guard<std::mutex> lock(info_mu_);
    auto it = route_info_.find(route);
    if (it != route_info_.end()) return it->second;
  }
  Request req;
  req.type = RequestType::kShardInfo;
  req.route = route;

  const size_t n = channels_.size();
  std::vector<Result<Response>> legs(n, Result<Response>(Status::Internal("pending")));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([this, i, &legs, &req] { legs[i] = HedgedCall(i, req); });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < n; ++i) {
    if (!LegUsable(legs[i])) {
      return Status(legs[i].status().code(),
                    "shard '" + map_.shards()[i].name +
                        "' unavailable while building the shard-info table: " +
                        legs[i].status().message());
    }
    if (!legs[i]->ok()) return legs[i]->ToStatus();
  }
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::map<ClassLabel, ViewCoverage> merged = MergeCoverage(legs, all);
  auto index = std::make_shared<RouteIndex>();
  for (const auto& [label, row] : merged) {
    index->labels[label].shard_to_global.resize(n);
  }
  for (size_t i = 0; i < n; ++i) {
    for (const ViewCoverage& row : legs[i]->coverage) {
      const std::vector<uint64_t>& global = merged[row.label].graph_indices;
      std::vector<uint64_t>& ranks =
          index->labels[row.label].shard_to_global[i];
      for (uint64_t gi : row.graph_indices) {
        const auto at = std::lower_bound(global.begin(), global.end(), gi);
        ranks.push_back(static_cast<uint64_t>(at - global.begin()));
      }
    }
  }
  for (auto& [label, row] : merged) index->merged.push_back(std::move(row));

  std::lock_guard<std::mutex> lock(info_mu_);
  auto [it, inserted] = route_info_.emplace(route, std::move(index));
  return it->second;
}

Response ShardRouter::PointQuery(const Request& req, size_t shard) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.point_queries;
  }
  GVEX_COUNTER_INC("router.point_queries");
  Result<Response> leg = HedgedCall(shard, req);
  if (!leg.ok()) return ErrorResponse(req.id, leg.status());
  Response resp = *std::move(leg);
  if (resp.ok() && req.type == RequestType::kSubgraphsContaining) {
    // The shard answered with slice-local subgraph positions; translate
    // to the corpus-global ranks a union server would report.
    auto info = ShardInfoFor(RouteOf(req));
    if (!info.ok()) return ErrorResponse(req.id, NoShardInfo(info.status()));
    Status st = (*info)->Globalize(req.label, shard, &resp.indices);
    if (!st.ok()) return ErrorResponse(req.id, st);
  }
  return resp;
}

Response ShardRouter::Scatter(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.scatter_queries;
  }
  GVEX_COUNTER_INC("router.scatter_queries");

  // Top-k needs the full per-label rows to rank globally, so the fan-out
  // request is a coverage scatter and the ranking happens at the merge.
  Request sub = req;
  if (req.type == RequestType::kTopViews) {
    sub.type = RequestType::kCoverageStats;
  }

  // Contains answers need the translation table; build it before the
  // scatter so a shard death mid-query cannot leave a half-built table.
  std::shared_ptr<const RouteIndex> index;
  if (req.type == RequestType::kSubgraphsContaining) {
    auto info = ShardInfoFor(RouteOf(req));
    if (!info.ok()) return ErrorResponse(req.id, NoShardInfo(info.status()));
    index = *info;
  }

  const size_t n = channels_.size();
  std::vector<Result<Response>> legs(n, Result<Response>(Status::Internal("pending")));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([this, i, &legs, &sub] { legs[i] = HedgedCall(i, sub); });
  }
  for (std::thread& t : threads) t.join();

  std::vector<size_t> answered;
  std::vector<std::string> missing;
  Status first_error;
  for (size_t i = 0; i < n; ++i) {
    const Status leg_status =
        LegUsable(legs[i]) ? legs[i]->ToStatus() : legs[i].status();
    if (leg_status.ok()) {
      answered.push_back(i);
    } else {
      missing.push_back(map_.shards()[i].name);
      if (first_error.ok()) first_error = leg_status;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shard_errors;
    }
  }
  if (answered.empty()) {
    return ErrorResponse(req.id, first_error.ok()
                                     ? Status::Internal("no shards configured")
                                     : first_error);
  }

  Response resp;
  resp.id = req.id;
  switch (req.type) {
    case RequestType::kSupport:
      for (size_t i : answered) resp.support += legs[i]->support;
      break;
    case RequestType::kFindHits: {
      for (size_t i : answered) {
        resp.hits.insert(resp.hits.end(), legs[i]->hits.begin(),
                         legs[i]->hits.end());
      }
      std::sort(resp.hits.begin(), resp.hits.end(),
                [](const Response::Hit& a, const Response::Hit& b) {
                  return a.graph_index < b.graph_index;
                });
      break;
    }
    case RequestType::kSubgraphsContaining: {
      for (size_t i : answered) {
        std::vector<uint64_t>& ranks = legs[i]->indices;
        Status st = index->Globalize(req.label, i, &ranks);
        if (!st.ok()) return ErrorResponse(req.id, st);
        resp.indices.insert(resp.indices.end(), ranks.begin(), ranks.end());
      }
      std::sort(resp.indices.begin(), resp.indices.end());
      resp.support = resp.indices.size();
      break;
    }
    case RequestType::kDiscriminativePatterns: {
      // A pattern discriminates fleet-wide iff it discriminates on every
      // answering shard: intersect the tier-position sets, then realize
      // the graphs from the first answering shard's aligned rows.
      std::vector<uint64_t> positions = legs[answered.front()]->indices;
      for (size_t k = 1; k < answered.size(); ++k) {
        const std::vector<uint64_t>& other = legs[answered[k]]->indices;
        std::vector<uint64_t> kept;
        for (uint64_t p : positions) {
          if (std::find(other.begin(), other.end(), p) != other.end()) {
            kept.push_back(p);
          }
        }
        positions = std::move(kept);
      }
      const Response& donor = *legs[answered.front()];
      for (uint64_t p : positions) {
        for (size_t j = 0; j < donor.indices.size(); ++j) {
          if (donor.indices[j] == p) {
            resp.patterns.push_back(donor.patterns[j]);
            break;
          }
        }
      }
      resp.indices = std::move(positions);
      break;
    }
    case RequestType::kShardInfo:
    case RequestType::kCoverageStats:
    case RequestType::kTopViews: {
      for (auto& [label, row] : MergeCoverage(legs, answered)) {
        resp.coverage.push_back(std::move(row));
      }
      if (req.type == RequestType::kTopViews) {
        serve::RankTopViews(req.top_k, &resp.coverage);
      }
      break;
    }
    case RequestType::kGenerations: {
      for (size_t i : answered) {
        resp.routes.insert(resp.routes.end(), legs[i]->routes.begin(),
                           legs[i]->routes.end());
      }
      break;
    }
    case RequestType::kHealth: {
      resp.has_health = true;
      resp.health.serving = !answered.empty() && missing.empty();
      for (size_t i : answered) {
        const serve::HealthInfo& h = legs[i]->health;
        resp.health.serving = resp.health.serving && h.serving;
        resp.health.queue_depth += h.queue_depth;
        resp.health.max_queue += h.max_queue;
        resp.health.workers += h.workers;
        resp.health.loads.insert(resp.health.loads.end(), h.loads.begin(),
                                 h.loads.end());
        resp.routes.insert(resp.routes.end(), legs[i]->routes.begin(),
                           legs[i]->routes.end());
      }
      break;
    }
    default:
      return ErrorResponse(req.id,
                           Status::Unimplemented("unhandled scatter type"));
  }

  resp.shards_total = static_cast<uint32_t>(n);
  resp.shards_answered = static_cast<uint32_t>(answered.size());
  if (!missing.empty()) {
    resp.code = StatusCode::kPartialResult;
    std::string names;
    for (size_t i = 0; i < missing.size(); ++i) {
      names += (i > 0 ? "," : "") + missing[i];
    }
    resp.message = "partial scatter: missing shards " + names + " (" +
                   std::to_string(answered.size()) + "/" + std::to_string(n) +
                   " answered)";
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.partial_results;
    }
    GVEX_COUNTER_INC("router.partial_results");
  }
  return resp;
}

Response ShardRouter::Call(const Request& req) {
  const RouterPlan plan = serve::InfoOf(req.type).router;
  if (plan == RouterPlan::kLocal) {
    Response resp;
    resp.id = req.id;
    if (req.type == RequestType::kStats) {
      resp.text = StatsJson();
    } else if (req.type == RequestType::kShutdown) {
      resp.text = "shutting down";
    } else {  // kPing
      resp.text = req.text.empty() ? "pong" : req.text;
    }
    return resp;
  }
  if (plan == RouterPlan::kRejected) {
    return ErrorResponse(
        req.id, Status::Unimplemented(
                    "the frontend hosts no views; use `gvex publish "
                    "--shard-map` to ship per-shard bundles"));
  }
  if (!req.route.empty() && !IsValidRouteName(req.route)) {
    return ErrorResponse(
        req.id,
        Status::InvalidArgument("invalid route name: '" + req.route +
                                "' (want 1..64 chars of [A-Za-z0-9_.-])"));
  }
  switch (plan) {
    case RouterPlan::kHome:
      // Pattern tiers and models are replicated, so any shard answers
      // byte-identically; pick a deterministic home per route.
      return PointQuery(req, map_.OwnerOf(RouteOf(req), 0));
    case RouterPlan::kPointOrScatter:
      if (req.graph_index < 0) return Scatter(req);
      return PointQuery(
          req, map_.OwnerOf(RouteOf(req),
                            static_cast<uint64_t>(req.graph_index)));
    case RouterPlan::kScatter:
      return Scatter(req);
    default:
      return ErrorResponse(req.id,
                           Status::Unimplemented("unhandled request type"));
  }
}

Result<std::unique_ptr<ShardRouter>> MakeSocketRouter(ShardMap map,
                                                      RouterOptions options) {
  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.reserve(map.shards().size());
  for (const ShardEntry& shard : map.shards()) {
    GVEX_ASSIGN_OR_RETURN(serve::Endpoint primary,
                          ParseEndpointSpec(shard.endpoint));
    serve::Endpoint standby;
    const bool has_standby = !shard.standby.empty();
    if (has_standby) {
      GVEX_ASSIGN_OR_RETURN(standby, ParseEndpointSpec(shard.standby));
    }
    channels.push_back(std::make_unique<SocketShardChannel>(
        std::move(primary), has_standby, std::move(standby)));
  }
  return std::make_unique<ShardRouter>(std::move(map), std::move(channels),
                                       options);
}

}  // namespace cluster
}  // namespace gvex
