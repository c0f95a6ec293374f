// Fan-out publish — the distribution half of gvex::cluster.
//
// `gvex publish --targets a,b,c` encodes one bundle and ships it to N
// servers over parallel connections, one worker thread per target. Each
// target runs the same per-target protocol:
//
//   1. Health gate: a kHealth probe must answer OK and report admission
//      headroom (queue not full) before the bundle is sent. An unhealthy
//      or unreachable target is retried on the shared jittered backoff
//      schedule (replicator.h), then reported as failed — the bundle is
//      never pushed at a server that cannot take it.
//   2. kInstall: the bundle rides the registry's atomic hot-swap, so a
//      failed target never installs a torn generation (bundle.h).
//   3. Verify: the install response's fingerprint must equal the locally
//      computed bundle fingerprint.
//
// The report carries one per-target row (attempts, final status, observed
// fingerprint, health snapshot) plus the aggregate: all-ok, all-failed
// (worst target status), or kPartialFailure when the outcomes are mixed —
// a distinct exit code, because "half the fleet is serving the new
// generation" is an operational state of its own. Succeeded targets are
// asserted to converge on one fingerprint.
//
// Failpoints: "cluster.publish_probe" (before each health probe),
// "cluster.publish_send" (before each install). Socket-level faults apply
// through the transport shim (socket.h). Obs: "cluster.publish_targets",
// "cluster.publish_failures", "cluster.publish_retries".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/common/result.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/socket.h"

namespace gvex {
namespace cluster {

struct PublishOptions {
  std::vector<serve::Endpoint> targets;
  /// Extra attempts per target after the first (connect, probe, and
  /// install failures all consume attempts).
  int retries = 2;
  /// Shared backoff schedule between attempts (JitteredBackoffMs).
  uint32_t backoff_base_ms = 50;
  uint32_t backoff_max_ms = 2000;
  uint64_t jitter_seed = 0;
  /// Probe kHealth before installing (default). Off, the publisher
  /// pushes blind — only the transport and install errors protect it.
  bool health_gate = true;
  /// Visit targets one after another on the calling thread instead of in
  /// parallel. The chaos harness uses this: with a single thread, armed
  /// failpoints hit a deterministic operation (tools/chaos/chaos.h).
  bool sequential = false;
};

/// \brief Outcome for one target.
struct TargetReport {
  std::string target;        ///< endpoint, printable form
  Status status;             ///< OK iff the install completed and verified
  int attempts = 0;          ///< connection attempts consumed
  bool probed = false;       ///< a health probe answered at least once
  serve::HealthInfo health;  ///< last probe answer (meaningful iff probed)
  std::string fingerprint;   ///< installed fingerprint ("" on failure)
};

/// \brief Aggregate outcome of one fan-out publish.
struct PublishReport {
  std::vector<TargetReport> targets;
  size_t succeeded = 0;
  size_t failed = 0;

  /// OK when every target installed; the worst per-target status when
  /// every target failed; kPartialFailure on a mixed outcome.
  Status Aggregate() const;
};

/// Ship `bundle` to every target in parallel. The error arm covers only
/// local problems (no targets, unencodable bundle); per-target failures
/// live in the report rows and the caller folds them with Aggregate().
Result<PublishReport> FanOutPublish(const ViewBundle& bundle,
                                    const PublishOptions& options);

class ShardMap;

/// Partition `bundle` by the shard map and ship each slice to its owning
/// shard's primary over the same per-target protocol (health gate,
/// install, fingerprint verify — each slice against its own
/// fingerprint). `options.targets` is ignored; endpoints come from the
/// map. The report carries one row per shard, and Aggregate() folds a
/// mixed outcome into kPartialFailure exactly like a replicated publish.
/// As there, the error arm covers only local problems (an empty map, an
/// unencodable slice); a shard whose endpoint does not parse fails its
/// row.
Result<PublishReport> ShardedPublish(const ViewBundle& bundle,
                                     const ShardMap& map,
                                     const PublishOptions& options);

}  // namespace cluster
}  // namespace gvex
