// The chaos sweep: hundreds of seeded fault schedules over the
// primary/standby/publisher topology (tools/chaos/chaos.h), every one
// asserting the three cluster invariants — torn installs never publish,
// replication lags but never regresses, and equal fingerprints answer
// byte-identically. Plus same-seed => same-event-log determinism (the
// property that makes a CI failure replayable) and the SIGPIPE
// killed-peer regression for the socket layer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "tools/chaos/chaos.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace cluster {
namespace {

const ChaosFixture& Fixture() {
  static const ChaosFixture* fixture = [] {
    auto built = MakeChaosFixture();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return new ChaosFixture(*std::move(built));
  }();
  return *fixture;
}

ChaosOptions OptionsForSeed(uint64_t seed, int steps) {
  ChaosOptions options;
  options.seed = seed;
  options.steps = steps;
  options.fault_probability = 0.45;
  options.generations = Fixture().generations;
  options.queries = Fixture().queries;
  return options;
}

// The headline sweep: >= 200 randomized-but-replayable schedules, zero
// invariant violations. A failing seed prints its full event log — feed
// it to `chaos_harness --replay <seed>` to step through under a debugger.
TEST(ChaosTest, TwoHundredSeededSchedulesHoldEveryInvariant) {
  constexpr uint64_t kSeeds = 200;
  constexpr int kSteps = 8;
  uint64_t faults = 0, publishes = 0, syncs = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto report = RunChaosScenario(OptionsForSeed(seed, kSteps));
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->violations.empty())
        << "seed " << seed << " violated invariants:\n"
        << [&] {
             std::string all;
             for (const std::string& v : report->violations) {
               all += "  " + v + "\n";
             }
             return all + report->EventLog();
           }();
    EXPECT_EQ(report->events.size(), static_cast<size_t>(kSteps));
    faults += report->faults_armed;
    publishes += report->publishes;
    syncs += report->syncs;
  }
  // The sweep only proves something if faults actually fired and the
  // cluster actually moved data. With p=0.45 over 1600 steps these
  // bounds are far below any plausible run; they guard against a future
  // refactor silently disabling the schedule.
  EXPECT_GE(faults, 400u);
  EXPECT_GE(publishes, 100u);
  EXPECT_GE(syncs, 100u);
}

TEST(ChaosTest, SameSeedReproducesTheExactEventLog) {
  for (uint64_t seed : {3u, 41u, 97u, 160u, 199u}) {
    auto first = RunChaosScenario(OptionsForSeed(seed, 12));
    auto second = RunChaosScenario(OptionsForSeed(seed, 12));
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->EventLog(), second->EventLog())
        << "seed " << seed << " is non-deterministic";
    EXPECT_FALSE(first->EventLog().empty());
  }
}

TEST(ChaosTest, DifferentSeedsProduceDifferentSchedules) {
  auto a = RunChaosScenario(OptionsForSeed(7, 12));
  auto b = RunChaosScenario(OptionsForSeed(8, 12));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->EventLog(), b->EventLog());
}

// Killed-peer regression: clients that send a request and vanish before
// the response (or mid-frame) must cost the server an EPIPE errno, not a
// SIGPIPE death. Before the MSG_NOSIGNAL hardening in socket.cc this
// test killed the whole test binary.
TEST(ChaosSocketTest, ServerSurvivesFiftyKilledPeers) {
  serve::ViewRegistry registry;
  serve::ExplanationServer server(&registry, {});
  ASSERT_TRUE(server.Start().ok());
  serve::SocketServer socket(&server);
  ASSERT_TRUE(socket.Start(serve::Endpoint::Tcp(0)).ok());
  const uint16_t port = socket.bound_port();

  serve::Request ping;
  ping.type = serve::RequestType::kPing;
  ping.text = "doomed";
  ping.id = 1;
  const std::string framed =
      serve::FrameMessage(serve::EncodeRequestBody(ping));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  for (int i = 0; i < 50; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)), 0);
    if (i % 2 == 0) {
      // Full request, then vanish before the response: the server's send
      // hits a dead peer.
      (void)::send(fd, framed.data(), framed.size(), 0);
    } else {
      // Half a frame, then vanish: the server's recv path dies mid-read.
      (void)::send(fd, framed.data(), framed.size() / 2, 0);
    }
    ::close(fd);
  }

  // Still alive and answering — over the wire and in-process.
  serve::SocketClient client;
  ASSERT_TRUE(client.Connect(serve::Endpoint::Tcp(port)).ok());
  auto resp = client.Call(ping);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(resp->text, "doomed");
  client.Close();
  socket.Stop();
  server.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace gvex
