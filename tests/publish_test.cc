// Health-gated fan-out publish: one bundle to N servers over per-target
// connections with retry/backoff — succeeded targets converge on one
// fingerprint, failed targets never install a torn bundle, a saturated
// target is refused by the health gate before any bytes ship, and mixed
// outcomes aggregate to the distinct partial-failure status.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/publisher.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/failpoint.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/obs/obs.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace cluster {
namespace {

using serve::Endpoint;
using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ServerOptions;
using serve::SocketServer;
using serve::ViewRegistry;
using testutil::MutagenicityContext;

const ViewBundle& TestBundle() {
  static const ViewBundle* bundle = [] {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, 12};
    ApproxGvex solver(&ctx.model, config);
    auto* b = new ViewBundle;
    for (ClassLabel label : {0, 1}) {
      auto view = solver.ExplainLabel(ctx.db, ctx.assigned, label);
      EXPECT_TRUE(view.ok()) << view.status().ToString();
      b->views.views.push_back(std::move(*view));
    }
    b->generation = 1;
    return b;
  }();
  return *bundle;
}

std::string ExpectedFingerprint() {
  auto fp = BundleFingerprint(TestBundle());
  EXPECT_TRUE(fp.ok());
  return *fp;
}

struct TestServer {
  ViewRegistry registry;
  std::unique_ptr<ExplanationServer> server;
  std::unique_ptr<SocketServer> socket;
  uint16_t port = 0;

  void Start(ServerOptions options = {}) {
    server = std::make_unique<ExplanationServer>(&registry, options);
    ASSERT_TRUE(server->Start().ok());
    socket = std::make_unique<SocketServer>(server.get());
    ASSERT_TRUE(socket->Start(Endpoint::Tcp(0)).ok());
    port = socket->bound_port();
    ASSERT_GT(port, 0);
  }

  void Stop() {
    if (socket != nullptr) socket->Stop();
    if (server != nullptr) server->Stop();
  }
};

PublishOptions FastOptions() {
  PublishOptions options;
  options.retries = 1;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 4;
  return options;
}

TEST(PublishTest, FanOutConvergesEveryTargetOnOneFingerprint) {
  TestServer a, b, c;
  a.Start();
  b.Start();
  c.Start();
  PublishOptions options = FastOptions();
  for (uint16_t port : {a.port, b.port, c.port}) {
    options.targets.push_back(Endpoint::Tcp(port));
  }
  auto report = FanOutPublish(TestBundle(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Aggregate().ok());
  EXPECT_EQ(report->succeeded, 3u);
  EXPECT_EQ(report->failed, 0u);
  const std::string expect = ExpectedFingerprint();
  for (const TargetReport& row : report->targets) {
    EXPECT_TRUE(row.status.ok()) << row.status.ToString();
    EXPECT_TRUE(row.probed);
    EXPECT_EQ(row.fingerprint, expect);
  }
  EXPECT_EQ(a.registry.fingerprint(kDefaultRoute), expect);
  EXPECT_EQ(b.registry.fingerprint(kDefaultRoute), expect);
  EXPECT_EQ(c.registry.fingerprint(kDefaultRoute), expect);
  a.Stop();
  b.Stop();
  c.Stop();
}

TEST(PublishTest, DeadTargetYieldsPartialFailureAndLiveTargetsConverge) {
  TestServer live;
  live.Start();
  PublishOptions options = FastOptions();
  options.targets.push_back(Endpoint::Tcp(live.port));
  options.targets.push_back(Endpoint::Tcp(1));  // nothing listens there
  auto report = FanOutPublish(TestBundle(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 1u);
  EXPECT_EQ(report->failed, 1u);
  EXPECT_TRUE(report->Aggregate().IsPartialFailure())
      << report->Aggregate().ToString();
  // The dead target burned every attempt; the live one converged.
  EXPECT_EQ(report->targets[1].attempts, options.retries + 1);
  EXPECT_FALSE(report->targets[1].probed);
  EXPECT_EQ(live.registry.fingerprint(kDefaultRoute), ExpectedFingerprint());
  live.Stop();
}

TEST(PublishTest, AllTargetsDeadSurfacesTheRealErrorNotPartialFailure) {
  PublishOptions options = FastOptions();
  options.retries = 0;
  options.targets.push_back(Endpoint::Tcp(1));
  auto report = FanOutPublish(TestBundle(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 0u);
  EXPECT_FALSE(report->Aggregate().ok());
  EXPECT_FALSE(report->Aggregate().IsPartialFailure());
}

TEST(PublishTest, HealthGateRefusesSaturatedTargetWithoutInstalling) {
  TestServer target;
  ServerOptions small;
  small.num_workers = 1;
  small.max_queue = 1;
  target.Start(small);

  // Fill the target: one request executing (held by the delay), one
  // parked in the 1-deep queue. queue_depth == max_queue, so the health
  // gate must refuse to ship. The hold is generous because the probe
  // only happens after FanOutPublish has encoded and fingerprinted the
  // whole bundle — slow under sanitizers.
  failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(3000),limit(1)");
  Request ping;
  ping.type = RequestType::kPing;
  ping.text = "x";
  ping.id = 1;
  std::future<Response> executing = target.server->Submit(ping);
  while (failpoint::FiredCount("serve.exec_delay") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<Response> queued = target.server->Submit(ping);

  PublishOptions options = FastOptions();
  options.retries = 0;
  options.targets.push_back(Endpoint::Tcp(target.port));
  auto report = FanOutPublish(TestBundle(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed, 1u);
  EXPECT_TRUE(report->targets[0].status.IsOverloaded())
      << report->targets[0].status.ToString();
  EXPECT_TRUE(report->targets[0].probed);
  // Refused before any bundle bytes shipped: nothing installed.
  EXPECT_EQ(target.registry.fingerprint(kDefaultRoute), "");

  EXPECT_TRUE(executing.get().ok());
  EXPECT_TRUE(queued.get().ok());

  // Once drained, the same publish goes through — and with the gate off,
  // saturation would not have stopped it in the first place.
  auto retry = FanOutPublish(TestBundle(), options);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->Aggregate().ok()) << retry->Aggregate().ToString();
  EXPECT_EQ(target.registry.fingerprint(kDefaultRoute), ExpectedFingerprint());
  target.Stop();
}

TEST(PublishTest, TornInstallNeverReplacesTheLiveGeneration) {
  TestServer target;
  target.Start();
  PublishOptions options = FastOptions();
  options.targets.push_back(Endpoint::Tcp(target.port));
  ASSERT_TRUE(FanOutPublish(TestBundle(), options)->Aggregate().ok());
  const std::string live = target.registry.fingerprint(kDefaultRoute);
  const uint64_t generation = target.registry.generation(kDefaultRoute);

  // Every install attempt tears server-side; the target keeps serving
  // its previous generation and the publisher reports the failure.
  ViewBundle next = TestBundle();
  next.generation = 2;
  next.views.views.pop_back();  // different content -> different print
  {
    failpoint::ScopedFailpoint torn("cluster.install", "error(io)");
    options.retries = 1;
    auto report = FanOutPublish(next, options);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->failed, 1u);
    EXPECT_TRUE(report->targets[0].status.IsIoError());
  }
  EXPECT_EQ(target.registry.fingerprint(kDefaultRoute), live);
  EXPECT_EQ(target.registry.generation(kDefaultRoute), generation);

  // Fault cleared: the new generation lands.
  auto report = FanOutPublish(next, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Aggregate().ok());
  EXPECT_NE(target.registry.fingerprint(kDefaultRoute), live);
  target.Stop();
}

TEST(PublishTest, RetryRecoversFromTransientProbeFault) {
  TestServer target;
  target.Start();
  PublishOptions options = FastOptions();
  options.retries = 2;
  options.targets.push_back(Endpoint::Tcp(target.port));
  failpoint::ScopedFailpoint flaky("cluster.publish_probe",
                                   "error(io),limit(1)");
  auto report = FanOutPublish(TestBundle(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Aggregate().ok()) << report->Aggregate().ToString();
  EXPECT_EQ(report->targets[0].attempts, 2);
  EXPECT_EQ(target.registry.fingerprint(kDefaultRoute), ExpectedFingerprint());
  target.Stop();
}

TEST(PublishTest, ShardedPublishCountsEachShardOnce) {
  TestServer live, dead;
  live.Start();
  dead.Start();
  auto map = ShardMap::Create(
      {{"s0", "tcp:" + std::to_string(live.port), ""},
       {"s1", "tcp:" + std::to_string(dead.port), ""}});
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  dead.Stop();
  const std::vector<ViewBundle> slices = map->Partition(TestBundle());
  ASSERT_EQ(slices.size(), 2u);

  obs::Counter& targets =
      obs::Registry::Global().GetCounter("cluster.publish_targets");
  obs::Counter& failures =
      obs::Registry::Global().GetCounter("cluster.publish_failures");
  const uint64_t targets_before = targets.Value();
  const uint64_t failures_before = failures.Value();
  PublishOptions options = FastOptions();
  options.retries = 0;
  auto report = ShardedPublish(TestBundle(), *map, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(targets.Value() - targets_before, 2u);
  EXPECT_EQ(failures.Value() - failures_before, 1u);

  ASSERT_EQ(report->targets.size(), 2u);
  EXPECT_EQ(report->succeeded, 1u);
  EXPECT_EQ(report->failed, 1u);
  EXPECT_TRUE(report->Aggregate().IsPartialFailure());
  const TargetReport& up = report->targets[0];
  EXPECT_EQ(up.target, "s0=tcp:" + std::to_string(live.port));
  EXPECT_TRUE(up.status.ok()) << up.status.ToString();
  EXPECT_TRUE(up.probed);
  EXPECT_EQ(up.attempts, 1);
  auto slice_fingerprint = BundleFingerprint(slices[0]);
  ASSERT_TRUE(slice_fingerprint.ok());
  EXPECT_EQ(up.fingerprint, *slice_fingerprint);
  EXPECT_EQ(live.registry.fingerprint(kDefaultRoute), *slice_fingerprint);
  const TargetReport& down = report->targets[1];
  EXPECT_EQ(down.target, "s1=tcp:" + std::to_string(dead.port));
  EXPECT_FALSE(down.status.ok());
  EXPECT_FALSE(down.probed);
  EXPECT_EQ(down.attempts, 1);
  EXPECT_EQ(down.fingerprint, "");
  live.Stop();
}

TEST(PublishTest, AggregateFoldsRowsIntoTheRightStatus) {
  PublishReport report;
  report.targets.resize(2);
  report.targets[0].target = "tcp:1";
  report.targets[1].target = "tcp:2";

  report.targets[0].status = Status::OK();
  report.targets[1].status = Status::OK();
  report.succeeded = 2;
  report.failed = 0;
  EXPECT_TRUE(report.Aggregate().ok());

  report.targets[1].status = Status::IoError("boom");
  report.succeeded = 1;
  report.failed = 1;
  EXPECT_TRUE(report.Aggregate().IsPartialFailure());
  EXPECT_NE(report.Aggregate().message().find("tcp:2"), std::string::npos);

  report.targets[0].status = Status::Overloaded("busy");
  report.succeeded = 0;
  report.failed = 2;
  EXPECT_TRUE(report.Aggregate().IsOverloaded());
}

}  // namespace
}  // namespace cluster
}  // namespace gvex
