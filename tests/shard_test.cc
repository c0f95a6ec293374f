// The sharded fleet's central contract (gvex/cluster/router.h): one
// ShardRouter over N shard servers answers exactly what one server
// holding the union of the shards' views would answer — byte-identical
// point queries, identical scatter-gather merges (counts exact, summed
// explainability to FP tolerance), and a partial scatter flagged with
// kPartialResult rather than a silently wrong aggregate.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gvex/cluster/router.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/failpoint.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace cluster {
namespace {

using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ViewCoverage;
using serve::ViewRegistry;
using testutil::MutagenicityContext;

constexpr char kRoute[] = "fleet";

const ExplanationViewSet& FleetViews() {
  static const ExplanationViewSet* set = [] {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, 12};
    ApproxGvex solver(&ctx.model, config);
    auto* out = new ExplanationViewSet;
    for (ClassLabel label : {0, 1}) {
      auto view = solver.ExplainLabel(ctx.db, ctx.assigned, label);
      EXPECT_TRUE(view.ok()) << view.status().ToString();
      out->views.push_back(std::move(*view));
    }
    return out;
  }();
  return *set;
}

ViewBundle FleetBundle() {
  ViewBundle bundle;
  bundle.route = kRoute;
  bundle.views = FleetViews();
  bundle.model =
      std::make_shared<const GcnClassifier>(MutagenicityContext().model);
  return bundle;
}

std::vector<ShardEntry> ThreeShards() {
  // Endpoints are never dialed — LocalShardChannel drives the servers
  // in-process — but the map requires them.
  return {{"left", "unix:/tmp/unused-l.sock", ""},
          {"mid", "unix:/tmp/unused-m.sock", ""},
          {"right", "unix:/tmp/unused-r.sock", ""}};
}

/// Union server + 3 shard servers (+ a standby replica of shard 0) +
/// the router, built once per binary. Declaration order matters: the
/// router joins straggler hedge legs before the servers it drives die.
struct Fleet {
  ShardMap map;
  ViewRegistry union_registry;
  ViewRegistry shard_registries[3];
  ViewRegistry standby_registry;
  std::unique_ptr<ExplanationServer> union_server;
  std::unique_ptr<ExplanationServer> shards[3];
  std::unique_ptr<ExplanationServer> standby;
  std::unique_ptr<ShardRouter> router;
};

Fleet* BuildFleet(RouterOptions ropts) {
  auto* f = new Fleet;
  auto map = ShardMap::Create(ThreeShards());
  EXPECT_TRUE(map.ok()) << map.status().ToString();
  f->map = *map;

  const ViewBundle bundle = FleetBundle();
  const std::vector<ViewBundle> parts = f->map.Partition(bundle);
  EXPECT_TRUE(f->union_registry.InstallBundle(bundle).ok());

  serve::ServerOptions options;
  options.num_workers = 2;
  f->union_server =
      std::make_unique<ExplanationServer>(&f->union_registry, options);
  EXPECT_TRUE(f->union_server->Start().ok());

  std::vector<std::unique_ptr<ShardChannel>> channels;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(f->shard_registries[i].InstallBundle(parts[i]).ok());
    f->shards[i] =
        std::make_unique<ExplanationServer>(&f->shard_registries[i], options);
    EXPECT_TRUE(f->shards[i]->Start().ok());
  }
  // The standby serves shard 0's exact slice — a fingerprint-synced
  // replica, so a hedge win changes latency, never content.
  EXPECT_TRUE(f->standby_registry.InstallBundle(parts[0]).ok());
  f->standby =
      std::make_unique<ExplanationServer>(&f->standby_registry, options);
  EXPECT_TRUE(f->standby->Start().ok());

  channels.push_back(std::make_unique<LocalShardChannel>(f->shards[0].get(),
                                                         f->standby.get()));
  channels.push_back(std::make_unique<LocalShardChannel>(f->shards[1].get()));
  channels.push_back(std::make_unique<LocalShardChannel>(f->shards[2].get()));
  f->router = std::make_unique<ShardRouter>(f->map, std::move(channels),
                                            ropts);
  return f;
}

/// The ShardRouterTest cases share one fleet, built on first use and
/// destroyed when the suite ends, so the router joins its last hedge-leg
/// threads before the process exits.
class ShardRouterTest : public ::testing::Test {
 protected:
  static Fleet& SharedFleet() {
    if (shared_ == nullptr) shared_.reset(BuildFleet(RouterOptions{}));
    return *shared_;
  }
  static void TearDownTestSuite() { shared_.reset(); }

 private:
  static std::unique_ptr<Fleet> shared_;
};

std::unique_ptr<Fleet> ShardRouterTest::shared_;

Request PatternRequest(RequestType type, ClassLabel label) {
  Request req;
  req.type = type;
  req.route = kRoute;
  req.label = label;
  req.has_graph = true;
  req.graph = FleetViews().ForLabel(label)->patterns.front();
  return req;
}

void ExpectSameCoverage(const std::vector<ViewCoverage>& fleet,
                        const std::vector<ViewCoverage>& single,
                        bool with_graph_ids) {
  ASSERT_EQ(fleet.size(), single.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet[i].label, single[i].label);
    EXPECT_EQ(fleet[i].patterns, single[i].patterns);
    EXPECT_EQ(fleet[i].subgraphs, single[i].subgraphs);
    EXPECT_EQ(fleet[i].nodes, single[i].nodes);
    EXPECT_EQ(fleet[i].edges, single[i].edges);
    // Per-shard partial sums re-associate the FP addition; equality to
    // well past printing precision, not bit-equality, is the contract.
    EXPECT_NEAR(fleet[i].explainability, single[i].explainability, 1e-9);
    if (with_graph_ids) {
      EXPECT_EQ(fleet[i].graph_indices, single[i].graph_indices);
    }
  }
}

// ---- corpus-wide queries ----------------------------------------------------

TEST_F(ShardRouterTest, SupportMatchesUnionServer) {
  Fleet& f = SharedFleet();
  for (ClassLabel label : {0, 1}) {
    const Request req = PatternRequest(RequestType::kSupport, label);
    const Response fleet = f.router->Call(req);
    const Response single = f.union_server->Call(req);
    ASSERT_TRUE(fleet.ok()) << fleet.message;
    ASSERT_TRUE(single.ok()) << single.message;
    EXPECT_EQ(fleet.support, single.support);
    EXPECT_EQ(fleet.shards_total, 3u);
    EXPECT_EQ(fleet.shards_answered, 3u);
  }
}

TEST_F(ShardRouterTest, ContainsTranslatesToUnionIndices) {
  Fleet& f = SharedFleet();
  for (ClassLabel label : {0, 1}) {
    const Request req =
        PatternRequest(RequestType::kSubgraphsContaining, label);
    const Response fleet = f.router->Call(req);
    const Response single = f.union_server->Call(req);
    ASSERT_TRUE(fleet.ok()) << fleet.message;
    ASSERT_TRUE(single.ok()) << single.message;
    // Shard-local positions were translated through the kShardInfo
    // table; the merged list must equal the union server's exactly.
    EXPECT_EQ(fleet.indices, single.indices);
    EXPECT_EQ(fleet.support, single.support);
  }
}

TEST_F(ShardRouterTest, FindHitsMergesInUnionOrder) {
  Fleet& f = SharedFleet();
  const Request req = PatternRequest(RequestType::kFindHits, 0);
  const Response fleet = f.router->Call(req);
  const Response single = f.union_server->Call(req);
  ASSERT_TRUE(fleet.ok()) << fleet.message;
  ASSERT_TRUE(single.ok()) << single.message;
  EXPECT_EQ(fleet.hits, single.hits);
}

TEST_F(ShardRouterTest, DiscriminativeIntersectionMatchesUnion) {
  Fleet& f = SharedFleet();
  Request req;
  req.type = RequestType::kDiscriminativePatterns;
  req.route = kRoute;
  req.label = 0;
  req.against = 1;
  const Response fleet = f.router->Call(req);
  const Response single = f.union_server->Call(req);
  ASSERT_TRUE(fleet.ok()) << fleet.message;
  ASSERT_TRUE(single.ok()) << single.message;
  // Pattern tiers are replicated, so tier positions align across the
  // fleet and the intersection is exact.
  EXPECT_EQ(fleet.indices, single.indices);
  ASSERT_EQ(fleet.patterns.size(), single.patterns.size());
  for (size_t i = 0; i < fleet.patterns.size(); ++i) {
    EXPECT_EQ(fleet.patterns[i].num_nodes(), single.patterns[i].num_nodes());
    EXPECT_EQ(fleet.patterns[i].num_edges(), single.patterns[i].num_edges());
  }
}

TEST_F(ShardRouterTest, CoverageStatsEqualUnionServer) {
  Fleet& f = SharedFleet();
  Request req;
  req.type = RequestType::kCoverageStats;
  req.route = kRoute;
  const Response fleet = f.router->Call(req);
  const Response single = f.union_server->Call(req);
  ASSERT_TRUE(fleet.ok()) << fleet.message;
  ASSERT_TRUE(single.ok()) << single.message;
  ExpectSameCoverage(fleet.coverage, single.coverage,
                     /*with_graph_ids=*/false);
}

TEST_F(ShardRouterTest, ShardInfoMergesToUnionCoverage) {
  Fleet& f = SharedFleet();
  Request req;
  req.type = RequestType::kShardInfo;
  req.route = kRoute;
  const Response fleet = f.router->Call(req);
  const Response single = f.union_server->Call(req);
  ASSERT_TRUE(fleet.ok()) << fleet.message;
  ASSERT_TRUE(single.ok()) << single.message;
  // The merged covered-graph lists are the router's translation table;
  // they must equal the union server's ascending lists exactly.
  ExpectSameCoverage(fleet.coverage, single.coverage,
                     /*with_graph_ids=*/true);
}

TEST_F(ShardRouterTest, TopViewsRanksAndTruncatesLikeUnion) {
  Fleet& f = SharedFleet();
  for (uint32_t top_k : {1u, 2u, 10u}) {
    Request req;
    req.type = RequestType::kTopViews;
    req.route = kRoute;
    req.top_k = top_k;
    const Response fleet = f.router->Call(req);
    const Response single = f.union_server->Call(req);
    ASSERT_TRUE(fleet.ok()) << fleet.message;
    ASSERT_TRUE(single.ok()) << single.message;
    ExpectSameCoverage(fleet.coverage, single.coverage,
                       /*with_graph_ids=*/false);
    EXPECT_LE(fleet.coverage.size(), static_cast<size_t>(top_k));
  }
}

// ---- point queries ----------------------------------------------------------

TEST_F(ShardRouterTest, ClassifyExplainMatchesUnionServer) {
  Fleet& f = SharedFleet();
  const auto& ctx = MutagenicityContext();
  Request req;
  req.type = RequestType::kClassifyExplain;
  req.route = kRoute;
  req.has_graph = true;
  req.graph = ctx.db.graph(3);
  const Response fleet = f.router->Call(req);
  const Response single = f.union_server->Call(req);
  ASSERT_TRUE(fleet.ok()) << fleet.message;
  ASSERT_TRUE(single.ok()) << single.message;
  EXPECT_EQ(fleet.predicted, single.predicted);
  EXPECT_EQ(fleet.probabilities, single.probabilities);
  EXPECT_EQ(fleet.indices, single.indices);
}

TEST_F(ShardRouterTest, PointRestrictedPatternQueryMatchesUnion) {
  Fleet& f = SharedFleet();
  const ExplanationView* view = FleetViews().ForLabel(0);
  ASSERT_NE(view, nullptr);
  ASSERT_FALSE(view->subgraphs.empty());
  for (const ExplanationSubgraph& sub : view->subgraphs) {
    Request req = PatternRequest(RequestType::kSupport, 0);
    req.graph_index = static_cast<int64_t>(sub.graph_index);
    const Response fleet = f.router->Call(req);
    const Response single = f.union_server->Call(req);
    ASSERT_TRUE(fleet.ok()) << fleet.message;
    ASSERT_TRUE(single.ok()) << single.message;
    EXPECT_EQ(fleet.support, single.support) << "graph " << sub.graph_index;

    Request contains = PatternRequest(RequestType::kSubgraphsContaining, 0);
    contains.graph_index = static_cast<int64_t>(sub.graph_index);
    const Response fleet_c = f.router->Call(contains);
    const Response single_c = f.union_server->Call(contains);
    ASSERT_TRUE(fleet_c.ok()) << fleet_c.message;
    ASSERT_TRUE(single_c.ok()) << single_c.message;
    // The owning shard's slice-local position is translated back to the
    // union view's global subgraph index.
    EXPECT_EQ(fleet_c.indices, single_c.indices)
        << "graph " << sub.graph_index;
  }
}

TEST_F(ShardRouterTest, PointQueryForUncoveredGraphIsNotFoundEverywhere) {
  Fleet& f = SharedFleet();
  Request req = PatternRequest(RequestType::kSupport, 0);
  req.graph_index = 1 << 20;  // far outside the corpus
  const Response fleet = f.router->Call(req);
  const Response single = f.union_server->Call(req);
  EXPECT_FALSE(fleet.ok());
  EXPECT_FALSE(single.ok());
  EXPECT_EQ(fleet.code, single.code);
}

// ---- failure accounting -----------------------------------------------------

TEST_F(ShardRouterTest, DeadShardFlagsPartialResultNeverWrongAggregate) {
  // A private fleet: this test kills a shard, which must not disturb
  // the shared fixture.
  std::unique_ptr<Fleet> f(BuildFleet(RouterOptions{}));

  const Request req = PatternRequest(RequestType::kSupport, 0);
  const Response healthy = f->router->Call(req);
  ASSERT_TRUE(healthy.ok()) << healthy.message;

  f->shards[2]->Stop();
  const Response partial = f->router->Call(req);
  EXPECT_EQ(partial.code, StatusCode::kPartialResult);
  EXPECT_EQ(partial.shards_total, 3u);
  EXPECT_EQ(partial.shards_answered, 2u);
  EXPECT_NE(partial.message.find("right"), std::string::npos)
      << "missing shard named in: " << partial.message;
  // The partial aggregate is a strict subset of the true one — flagged,
  // never silently wrong (and never inflated).
  EXPECT_LE(partial.support, healthy.support);
  EXPECT_GE(f->router->stats().partial_results, 1u);

  // Point queries owned by live shards are unaffected.
  const ExplanationView* view = FleetViews().ForLabel(0);
  for (const ExplanationSubgraph& sub : view->subgraphs) {
    if (f->map.OwnerOf(kRoute, sub.graph_index) == 2) continue;
    Request point = PatternRequest(RequestType::kSupport, 0);
    point.graph_index = static_cast<int64_t>(sub.graph_index);
    EXPECT_TRUE(f->router->Call(point).ok());
    break;
  }
}

TEST_F(ShardRouterTest, HedgedRequestWinsOverSlowPrimaryWithSameAnswer) {
  std::unique_ptr<Fleet> f(
      BuildFleet(RouterOptions{/*hedge_ms=*/10, /*shard_deadline_ms=*/0}));

  // Baseline before arming the delay: what the answer must still be.
  Request req = PatternRequest(RequestType::kSupport, 0);
  const ExplanationView* view = FleetViews().ForLabel(0);
  uint64_t home_graph = 0;
  for (const ExplanationSubgraph& sub : view->subgraphs) {
    if (f->map.OwnerOf(kRoute, sub.graph_index) == 0) {
      home_graph = sub.graph_index;
      break;
    }
  }
  req.graph_index = static_cast<int64_t>(home_graph);
  const Response expected = f->router->Call(req);
  ASSERT_TRUE(expected.ok()) << expected.message;

  // First Execute after arming sleeps 150 ms — that is shard 0's
  // primary. The router hedges after 10 ms; the standby's Execute is
  // the second notify (limit(1) exhausted) and answers immediately.
  failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(150),limit(1)");
  const Response hedged = f->router->Call(req);
  ASSERT_TRUE(hedged.ok()) << hedged.message;
  EXPECT_EQ(hedged.support, expected.support);

  const RouterStats stats = f->router->stats();
  EXPECT_GE(stats.hedges_fired, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
}

TEST_F(ShardRouterTest, RouterAnswersAdminVerbsLocally) {
  Fleet& f = SharedFleet();
  Request ping;
  ping.type = RequestType::kPing;
  ping.text = "hello";
  EXPECT_EQ(f.router->Call(ping).text, "hello");

  Request stats;
  stats.type = RequestType::kStats;
  const Response s = f.router->Call(stats);
  EXPECT_NE(s.text.find("\"router\""), std::string::npos);

  Request install;
  install.type = RequestType::kInstall;
  const Response inst = f.router->Call(install);
  EXPECT_EQ(inst.code, StatusCode::kUnimplemented);

  // Ingest and evaluate have no fleet-wide meaning: the router answers
  // them kUnimplemented instead of forwarding to a shard.
  for (RequestType type : {RequestType::kIngest, RequestType::kEvaluate}) {
    Request unsupported;
    unsupported.type = type;
    EXPECT_EQ(f.router->Call(unsupported).code, StatusCode::kUnimplemented)
        << InfoOf(type).name;
  }
}

TEST_F(ShardRouterTest, HealthAggregatesAcrossShards) {
  Fleet& f = SharedFleet();
  Request req;
  req.type = RequestType::kHealth;
  const Response resp = f.router->Call(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  ASSERT_TRUE(resp.has_health);
  EXPECT_TRUE(resp.health.serving);
  EXPECT_EQ(resp.health.workers, 6u);  // 2 workers x 3 shards
  EXPECT_EQ(resp.shards_answered, 3u);
}

}  // namespace
}  // namespace cluster
}  // namespace gvex
