// ViewRegistry — the read side of the serving tier: immutable, validated
// snapshots of (explanation view set, optional classifier) with atomic
// generation hot-swap, one independent generation chain per named route.
//
// A snapshot is built and validated completely off to the side and only
// then published under the registry lock, so readers either see the old
// generation or the new one — never partial state. A failed load (corrupt
// file, validation error, armed "serve.registry_load" / "cluster.install"
// failpoint) leaves the current generation untouched. Workers pin a
// snapshot with one shared_ptr copy per request; a superseded
// generation stays alive until its last in-flight request drops it.
//
// Routes (gvex::cluster): each route holds its own (views, model)
// generation chain, so one process can host and A/B several explainer
// configurations. The no-argument methods keep the pre-cluster contract
// by operating on cluster::kDefaultRoute. Every published generation
// carries a content fingerprint (cluster/bundle.h) — replication syncs on
// it, and `stats` reports it per route.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/common/result.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"

namespace gvex {
namespace serve {

/// \brief One published generation: views plus the optional model that
/// classify-and-explain requests need.
struct LoadedViewSet {
  std::string route = cluster::kDefaultRoute;
  uint64_t generation = 0;  ///< local, monotonic per route
  /// Publisher's stamp when this generation arrived as a bundle
  /// (0 = published locally). Replication never syncs on this.
  uint64_t source_generation = 0;
  /// Content fingerprint (hex16, cluster::BundleFingerprint) — equal
  /// fingerprints mean byte-identical views+model.
  std::string fingerprint;
  std::string source_path;  ///< empty for in-process / wire installs
  ExplanationViewSet views;
  std::shared_ptr<const GcnClassifier> model;  ///< may be null
  /// Quantized payload of record when this generation arrived as a v2
  /// bundle (null for fp32 generations). MakeBundle re-ships it verbatim,
  /// which is what keeps fingerprints stable across fetch/re-publish.
  std::shared_ptr<const QuantizedModel> qmodel;

  WeightPrecision precision() const {
    return qmodel != nullptr ? qmodel->precision : WeightPrecision::kFp32;
  }

  const ExplanationView* ForLabel(ClassLabel label) const {
    return views.ForLabel(label);
  }
};

/// Per-route snapshot of registry state for stats / the `generations`
/// endpoint.
struct RouteStatus {
  std::string route;
  uint64_t generation = 0;
  uint64_t source_generation = 0;
  std::string fingerprint;
  bool warmed = false;
  uint64_t warm_pairs = 0;
  uint64_t views = 0;
  uint64_t patterns = 0;
  uint64_t subgraphs = 0;
};

class ViewRegistry {
 public:
  // ---- default-route API (pre-cluster contract) -----------------------------

  /// Load a v2/v1 view file, validate it, and publish it as the next
  /// generation of the default route. The previous generation (if any)
  /// remains published on failure. Failpoint: "serve.registry_load".
  Status LoadViews(const std::string& path);

  /// Load the classifier used by kClassifyExplain. Publishes a new
  /// generation carrying the current views plus this model.
  Status LoadModel(const std::string& path);

  /// In-process installs (tests, benches): same validation + swap path,
  /// no disk involved.
  Status InstallViews(ExplanationViewSet set);
  void InstallModel(std::shared_ptr<const GcnClassifier> model);

  /// Current published generation of the default route (null until the
  /// first successful load).
  std::shared_ptr<const LoadedViewSet> Snapshot() const;

  uint64_t generation() const;

  /// Pre-touch the shared MatchCache with every (pattern, subgraph) pair
  /// of every view of the default route, so the first real queries hit
  /// warm shards instead of paying the cold VF2 searches. Returns the
  /// number of pairs touched and marks the route warmed.
  size_t WarmMatchCache();

  // ---- routed API (gvex::cluster) -------------------------------------------

  Status LoadViews(const std::string& route, const std::string& path);
  Status InstallViews(const std::string& route, ExplanationViewSet set);

  /// Install a decoded bundle as the next generation of its route:
  /// validation + atomic swap; a failed install (invalid views, armed
  /// "cluster.install" failpoint) leaves the live generation untouched.
  Status InstallBundle(const cluster::ViewBundle& bundle);

  /// Build a shippable bundle from the current generation of `route`
  /// (what kFetch answers with).
  Result<cluster::ViewBundle> MakeBundle(const std::string& route) const;

  /// Current generation of `route`; null when the route has never
  /// published.
  std::shared_ptr<const LoadedViewSet> Snapshot(const std::string& route) const;

  uint64_t generation(const std::string& route) const;

  /// Fingerprint of the live generation ("" when none) — what the
  /// replicator compares against the primary.
  std::string fingerprint(const std::string& route) const;

  size_t WarmMatchCache(const std::string& route);

  /// Per-route exact-fp32 policy (`serve --exact-fp32`): a marked route
  /// refuses quantized generations at the publish funnel, so everything
  /// it ever serves stays byte-identical to the fp32 reference. The
  /// policy is advisory-free — it does not evict an already-live
  /// quantized generation, it only rejects new ones.
  void SetExactFp32(const std::string& route, bool exact);
  bool IsExactFp32(const std::string& route) const;

  /// Every route that has published at least one generation, sorted.
  std::vector<std::string> Routes() const;

  /// Per-route state, sorted by route name.
  std::vector<RouteStatus> RouteStatuses() const;

  /// Reject view sets that cannot serve queries: duplicate labels,
  /// subgraphs whose node list disagrees with the stored induced
  /// subgraph, or empty pattern tiers alongside non-empty subgraph tiers.
  static Status Validate(const ExplanationViewSet& set);

 private:
  struct RouteState {
    std::shared_ptr<const LoadedViewSet> current;
    uint64_t next_generation = 1;
    bool warmed = false;
    size_t warm_pairs = 0;
  };

  Status Publish(const std::string& route, ExplanationViewSet views,
                 std::string source_path,
                 std::shared_ptr<const GcnClassifier> model,
                 uint64_t source_generation,
                 std::shared_ptr<const QuantizedModel> qmodel = nullptr);

  mutable std::mutex mu_;
  std::map<std::string, RouteState> routes_;
  std::set<std::string> exact_fp32_routes_;
};

}  // namespace serve
}  // namespace gvex
