// Per-route admission quotas: a bursty route sheds with kQuotaExceeded at
// its own budget (queue depth at admission, worker share at dispatch)
// while the default route's goodput is untouched — plus the quota spec
// grammar and the health/stats visibility of route occupancy.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gvex/common/failpoint.h"
#include "gvex/obs/obs.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace serve {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

Request PingOn(const std::string& route) {
  Request req;
  req.type = RequestType::kPing;
  req.route = route;
  req.text = "hello";
  req.id = 1;
  return req;
}

const RouteLoad* LoadOf(const std::vector<RouteLoad>& loads,
                        const std::string& route) {
  for (const RouteLoad& l : loads) {
    if (l.route == route) return &l;
  }
  return nullptr;
}

TEST(RouteQuotaSpecTest, ParsesDepthAndShare) {
  auto depth_only = ParseRouteQuotaSpec("exp=8");
  ASSERT_TRUE(depth_only.ok());
  EXPECT_EQ(depth_only->first, "exp");
  EXPECT_EQ(depth_only->second.max_depth, 8u);
  EXPECT_EQ(depth_only->second.worker_share, 0.0);

  auto both = ParseRouteQuotaSpec("exp=8:0.25");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->second.max_depth, 8u);
  EXPECT_DOUBLE_EQ(both->second.worker_share, 0.25);

  auto share_only = ParseRouteQuotaSpec("exp=0:0.5");
  ASSERT_TRUE(share_only.ok());
  EXPECT_EQ(share_only->second.max_depth, 0u);
  EXPECT_DOUBLE_EQ(share_only->second.worker_share, 0.5);
}

TEST(RouteQuotaSpecTest, RejectsMalformedSpecs) {
  for (const char* bad : {"exp", "exp=", "=8", "exp=x", "exp=8:",
                          "exp=8:0", "exp=8:1.5", "exp=8:x", "exp=0",
                          "bad route!=8", ""}) {
    EXPECT_TRUE(ParseRouteQuotaSpec(bad).status().IsInvalidArgument())
        << "spec '" << bad << "' should not parse";
  }
}

// The tentpole invariant, deterministically: a burst of 30 requests on a
// quota'd route sheds at the route budget, yet every single default-route
// request completes OK (100% goodput, trivially within 5% of the
// no-burst baseline) and the GLOBAL shed counter never moves — the burst
// was absorbed by the route budget, not the shared queue.
TEST(RouteQuotaTest, BurstRouteShedsWithoutTouchingDefaultGoodput) {
  ViewRegistry registry;  // ping needs no views
  ServerOptions options;
  options.num_workers = 2;
  options.max_queue = 64;
  options.route_quotas["exp"] = RouteQuota{/*max_depth=*/2,
                                           /*worker_share=*/0.5};
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t global_shed_before = CounterValue("serve.shed");
  const uint64_t quota_shed_before = CounterValue("serve.quota_shed");

  // Slow every execution down so the burst actually piles up at the
  // admission queue instead of draining as fast as we submit.
  failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(10)");

  std::vector<std::future<Response>> burst;
  for (int i = 0; i < 30; ++i) burst.push_back(server.Submit(PingOn("exp")));
  std::vector<std::future<Response>> steady;
  for (int i = 0; i < 10; ++i) steady.push_back(server.Submit(PingOn("")));

  size_t shed = 0, served = 0;
  for (auto& f : burst) {
    Response resp = f.get();
    if (resp.code == StatusCode::kQuotaExceeded) {
      ++shed;
    } else if (resp.ok()) {
      ++served;
    } else {
      ADD_FAILURE() << "burst request failed oddly: " << resp.message;
    }
  }
  // 30 submissions raced a 2-deep budget drained at ~10ms/request: the
  // overwhelming majority must shed, a few in-budget ones may serve.
  EXPECT_GE(shed, 20u);
  EXPECT_EQ(shed + served, 30u);

  // Default-route goodput: every request completes OK.
  for (auto& f : steady) {
    Response resp = f.get();
    EXPECT_TRUE(resp.ok()) << resp.message;
  }

  // The shed was the route budget, never the global queue.
  EXPECT_EQ(CounterValue("serve.shed"), global_shed_before);
  EXPECT_GE(CounterValue("serve.quota_shed"), quota_shed_before + shed);
  EXPECT_GE(CounterValue("serve.quota_shed.exp"), shed);

  // Occupancy + quota are visible per route once the dust settles.
  const std::vector<RouteLoad> loads = server.RouteLoads();
  const RouteLoad* exp = LoadOf(loads, "exp");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->quota_depth, 2u);
  EXPECT_EQ(exp->quota_workers, 1u);  // max(1, floor(0.5 * 2))
  EXPECT_GE(exp->quota_shed, shed);
  EXPECT_EQ(exp->queued, 0u);
  EXPECT_EQ(exp->active, 0u);
  server.Stop();
}

// Each route's sheds land on its own serve.quota_shed.<route> counter:
// two routes overflow their budgets in one process, and every per-route
// counter moves by exactly that route's quota_shed in the loads table.
TEST(RouteQuotaTest, QuotaShedCountersAreBookedPerRoute) {
  ViewRegistry registry;
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 64;
  options.route_quotas["left"] = RouteQuota{/*max_depth=*/1,
                                            /*worker_share=*/0.0};
  options.route_quotas["right"] = RouteQuota{/*max_depth=*/1,
                                             /*worker_share=*/0.0};
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t left_before = CounterValue("serve.quota_shed.left");
  const uint64_t right_before = CounterValue("serve.quota_shed.right");

  // One slow worker and a one-deep budget per route: nearly the whole
  // interleaved burst sheds, on both routes.
  failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(20)");
  std::vector<std::future<Response>> burst;
  for (int i = 0; i < 10; ++i) {
    burst.push_back(server.Submit(PingOn("left")));
    burst.push_back(server.Submit(PingOn("right")));
  }
  for (auto& f : burst) {
    const Response resp = f.get();
    EXPECT_TRUE(resp.ok() || resp.code == StatusCode::kQuotaExceeded)
        << resp.message;
  }

  const std::vector<RouteLoad> loads = server.RouteLoads();
  const RouteLoad* left = LoadOf(loads, "left");
  const RouteLoad* right = LoadOf(loads, "right");
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_GT(left->quota_shed, 0u);
  EXPECT_GT(right->quota_shed, 0u);
  EXPECT_EQ(CounterValue("serve.quota_shed.left") - left_before,
            left->quota_shed);
  EXPECT_EQ(CounterValue("serve.quota_shed.right") - right_before,
            right->quota_shed);
  server.Stop();
}

// Worker-share enforcement at dispatch: with 2 workers and a 0.5 share,
// the quota'd route holds at most one worker, so a default-route request
// submitted BEHIND two long route requests completes while the second
// route request is still waiting for the route's single worker slot.
TEST(RouteQuotaTest, WorkerShareCapLetsDefaultRouteOvertake) {
  ViewRegistry registry;
  ServerOptions options;
  options.num_workers = 2;
  options.route_quotas["exp"] = RouteQuota{/*max_depth=*/8,
                                           /*worker_share=*/0.5};
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  // Only the FIRST executed request is slow: exp1 occupies the route's
  // single worker slot for ~500ms, exp2 must wait for it, and the free
  // second worker must pick up the default request instead.
  failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(500),limit(1)");
  std::future<Response> exp1 = server.Submit(PingOn("exp"));
  // Once the (limit 1) delay has fired, exp1 — and only exp1 — is the
  // slow one; everything submitted after runs at full speed.
  while (failpoint::FiredCount("serve.exec_delay") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<Response> exp2 = server.Submit(PingOn("exp"));
  std::future<Response> steady = server.Submit(PingOn(""));

  Response resp = steady.get();
  EXPECT_TRUE(resp.ok()) << resp.message;
  // The default request finished; exp2 is still parked behind exp1's
  // worker-slot hold (it would already be done if the cap leaked).
  EXPECT_EQ(exp2.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(exp1.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  EXPECT_TRUE(exp1.get().ok());
  EXPECT_TRUE(exp2.get().ok());
  server.Stop();
}

// Health() carries the same loads table plus global queue state, and the
// hook grafts owner fields on top without the server knowing about them.
TEST(RouteQuotaTest, HealthReportsQuotaOccupancyAndHookFields) {
  ViewRegistry registry;
  ServerOptions options;
  options.num_workers = 2;
  options.max_queue = 16;
  options.route_quotas["exp"] = RouteQuota{4, 0.5};
  ExplanationServer server(&registry, options);
  server.SetHealthHook([](HealthInfo* health) {
    health->following = true;
    health->replication_lag_polls = 7;
    health->replication_error = "primary unreachable";
  });
  ASSERT_TRUE(server.Start().ok());

  HealthInfo health = server.Health();
  EXPECT_FALSE(health.serving);  // no views published yet
  EXPECT_EQ(health.max_queue, 16u);
  EXPECT_EQ(health.workers, 2u);
  const RouteLoad* exp = LoadOf(health.loads, "exp");
  ASSERT_NE(exp, nullptr);  // quota-configured routes visible pre-traffic
  EXPECT_EQ(exp->quota_depth, 4u);
  EXPECT_EQ(exp->quota_workers, 1u);
  EXPECT_TRUE(health.following);
  EXPECT_EQ(health.replication_lag_polls, 7u);
  EXPECT_EQ(health.replication_error, "primary unreachable");

  // The kHealth endpoint round-trips the same structure.
  Request probe;
  probe.type = RequestType::kHealth;
  probe.id = 9;
  Response resp = server.Call(probe);
  ASSERT_TRUE(resp.ok()) << resp.message;
  ASSERT_TRUE(resp.has_health);
  EXPECT_EQ(resp.health.max_queue, 16u);
  EXPECT_TRUE(resp.health.following);
  EXPECT_EQ(resp.health.replication_error, "primary unreachable");
  server.Stop();
}

// Wire codec round-trip for the kHealth payload.
TEST(RouteQuotaTest, HealthInfoSurvivesTheWireCodec) {
  Response resp;
  resp.id = 4;
  resp.has_health = true;
  resp.health.serving = true;
  resp.health.queue_depth = 3;
  resp.health.max_queue = 64;
  resp.health.workers = 4;
  resp.health.following = true;
  resp.health.replication_installs = 11;
  resp.health.replication_lag_polls = 2;
  resp.health.replication_error = "poll failed: connection refused";
  RouteLoad load;
  load.route = "exp";
  load.queued = 5;
  load.active = 1;
  load.quota_depth = 8;
  load.quota_workers = 2;
  load.quota_shed = 40;
  resp.health.loads.push_back(load);

  auto decoded = DecodeResponseBody(EncodeResponseBody(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->has_health);
  EXPECT_EQ(decoded->health, resp.health);
}

}  // namespace
}  // namespace serve
}  // namespace gvex
