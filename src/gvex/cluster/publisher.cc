#include "gvex/cluster/publisher.h"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "gvex/cluster/replicator.h"
#include "gvex/cluster/router.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/failpoint.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace cluster {

namespace {

/// One target's healthy/unhealthy verdict. Reachability alone is not
/// enough: a server whose admission queue is already full should not be
/// handed a bundle install on top.
bool HealthAdmits(const serve::HealthInfo& health) {
  return health.max_queue == 0 || health.queue_depth < health.max_queue;
}

Status PublishOne(const ViewBundle& bundle, const std::string& encoded,
                  const std::string& expect_fingerprint,
                  const serve::Endpoint& endpoint,
                  const PublishOptions& options, TargetReport* report) {
  serve::SocketClient client;
  Status last = Status::Internal("publish never attempted");
  for (int attempt = 1; attempt <= options.retries + 1; ++attempt) {
    if (attempt > 1) {
      GVEX_COUNTER_INC("cluster.publish_retries");
      std::this_thread::sleep_for(std::chrono::milliseconds(
          JitteredBackoffMs(attempt - 1, options.backoff_base_ms,
                            options.backoff_max_ms, options.jitter_seed)));
    }
    ++report->attempts;
    client.Close();
    last = client.Connect(endpoint);
    if (!last.ok()) continue;

    if (options.health_gate) {
      last = failpoint::Check("cluster.publish_probe");
      if (!last.ok()) continue;
      serve::Request probe;
      probe.type = serve::RequestType::kHealth;
      probe.id = static_cast<uint64_t>(attempt);
      Result<serve::Response> answer = client.Call(probe);
      if (!answer.ok()) {
        last = answer.status();
        continue;
      }
      if (!answer->ok()) {
        last = answer->ToStatus();
        continue;
      }
      report->probed = true;
      report->health = answer->health;
      if (!HealthAdmits(answer->health)) {
        last = Status::Overloaded("target " + endpoint.ToString() +
                                  " reports a full admission queue");
        continue;
      }
    }

    last = failpoint::Check("cluster.publish_send");
    if (!last.ok()) continue;
    serve::Request install;
    install.type = serve::RequestType::kInstall;
    install.id = static_cast<uint64_t>(attempt);
    install.bundle = encoded;
    Result<serve::Response> answer = client.Call(install);
    if (!answer.ok()) {
      last = answer.status();
      continue;
    }
    if (!answer->ok()) {
      // The server rejected the bundle (torn payload, route mismatch,
      // failed validation). Deterministic — retrying cannot help.
      return answer->ToStatus();
    }
    for (const serve::RouteInfo& route : answer->routes) {
      if (route.route == bundle.route) report->fingerprint = route.fingerprint;
    }
    if (report->fingerprint != expect_fingerprint) {
      return Status::Internal("target " + endpoint.ToString() +
                              " installed fingerprint '" +
                              report->fingerprint + "' but the bundle is '" +
                              expect_fingerprint + "'");
    }
    return Status::OK();
  }
  return last;
}

/// One report row: ship `slice` to `endpoint` (an error fails the row
/// unsent) and label the row `target`.
struct PublishJob {
  std::string target;
  Result<serve::Endpoint> endpoint;
  const ViewBundle* slice;
};

/// The runner behind both entry points: encodes and fingerprints each
/// distinct slice once, runs PublishOne per job (one connection and
/// thread per job, or all on this thread when `options.sequential`), and
/// tallies the rows and the publish counters once. An unencodable slice
/// is a local problem and fails the whole call before anything ships.
Result<PublishReport> RunPublish(const std::vector<PublishJob>& jobs,
                                 const PublishOptions& options) {
  struct Payload {
    std::string encoded;
    std::string fingerprint;
  };
  std::map<const ViewBundle*, Payload> payloads;
  for (const PublishJob& job : jobs) {
    if (payloads.count(job.slice) != 0) continue;
    GVEX_ASSIGN_OR_RETURN(std::string encoded, EncodeBundle(*job.slice));
    GVEX_ASSIGN_OR_RETURN(std::string fingerprint,
                          BundleFingerprint(*job.slice));
    payloads[job.slice] = {std::move(encoded), std::move(fingerprint)};
  }

  PublishReport report;
  report.targets.resize(jobs.size());
  GVEX_COUNTER_ADD("cluster.publish_targets", jobs.size());

  // A slow or dead target costs its own retries, not the fleet's wall
  // clock. Sequential mode keeps everything on this thread for
  // deterministic fault injection.
  std::vector<std::thread> threads;
  threads.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const PublishJob* job = &jobs[i];
    TargetReport* row = &report.targets[i];
    row->target = job->target;
    auto task = [&, job, row] {
      if (!job->endpoint.ok()) {
        row->status = job->endpoint.status();
        return;
      }
      const Payload& payload = payloads.at(job->slice);
      row->status = PublishOne(*job->slice, payload.encoded,
                               payload.fingerprint, *job->endpoint, options,
                               row);
    };
    if (options.sequential) {
      task();
    } else {
      threads.emplace_back(task);
    }
  }
  for (std::thread& t : threads) t.join();

  for (const TargetReport& row : report.targets) {
    if (row.status.ok()) {
      ++report.succeeded;
    } else {
      ++report.failed;
      GVEX_COUNTER_INC("cluster.publish_failures");
    }
  }
  return report;
}

}  // namespace

Status PublishReport::Aggregate() const {
  if (failed == 0) return Status::OK();
  if (succeeded == 0) {
    // Every target failed: surface the worst row so single-target
    // publishes keep their precise exit codes (a torn bundle is still
    // kIoError, an unreachable server still kIoError, etc.).
    for (const TargetReport& t : targets) {
      if (!t.status.ok()) return t.status;
    }
  }
  std::string failures;
  for (const TargetReport& t : targets) {
    if (t.status.ok()) continue;
    if (!failures.empty()) failures += "; ";
    failures += t.target + ": " + t.status.ToString();
  }
  return Status::PartialFailure(
      std::to_string(succeeded) + "/" + std::to_string(targets.size()) +
      " targets installed; failed: " + failures);
}

Result<PublishReport> FanOutPublish(const ViewBundle& bundle,
                                    const PublishOptions& options) {
  if (options.targets.empty()) {
    return Status::InvalidArgument("publish needs at least one target");
  }
  std::vector<PublishJob> jobs;
  jobs.reserve(options.targets.size());
  for (const serve::Endpoint& target : options.targets) {
    jobs.push_back({target.ToString(), target, &bundle});
  }
  return RunPublish(jobs, options);
}

Result<PublishReport> ShardedPublish(const ViewBundle& bundle,
                                     const ShardMap& map,
                                     const PublishOptions& options) {
  if (map.shards().empty()) {
    return Status::InvalidArgument("sharded publish needs a non-empty map");
  }
  // Each shard gets its own slice over the same health gate / install /
  // verify protocol, each slice verified against its own fingerprint.
  const std::vector<ViewBundle> parts = map.Partition(bundle);
  std::vector<PublishJob> jobs;
  jobs.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    const ShardEntry& shard = map.shards()[i];
    jobs.push_back({shard.name + "=" + shard.endpoint,
                    ParseEndpointSpec(shard.endpoint), &parts[i]});
  }
  return RunPublish(jobs, options);
}

}  // namespace cluster
}  // namespace gvex
