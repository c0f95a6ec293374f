// Self-tests of the benchmark's own machinery: percentiles, the answer
// checks that turn a wrong answer into a failed operation, counter deltas
// as run boundaries, and span self time. Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "gvex/matching/match_cache.h"
#include "gvex/serve/socket.h"
#include "serving.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = hi; i >= lo; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRank, KnownVectors) {
  EXPECT_EQ(NearestRank(Range(1, 1000), 0.50), 500.0);
  EXPECT_EQ(NearestRank(Range(1, 1000), 0.99), 990.0);
  EXPECT_EQ(NearestRank(Range(1, 100), 0.50), 50.0);
  EXPECT_EQ(NearestRank(Range(1, 100), 0.99, 0), 99.0);
  EXPECT_EQ(NearestRank(Range(1, 100), 1.0, 0), 100.0);
  EXPECT_EQ(NearestRank({7.0}, 0.5, 0), 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(NearestRank, RefusesPercentilesWithoutTenSamplesBeyond) {
  // 100 samples: the p99 rank is 99, with one sample beyond it.
  EXPECT_FALSE(NearestRank(Range(1, 100), 0.99).has_value());
  // 999 samples: rank 990, nine beyond; 1000 samples: ten beyond.
  EXPECT_FALSE(NearestRank(Range(1, 999), 0.99).has_value());
  EXPECT_TRUE(NearestRank(Range(1, 1000), 0.99).has_value());
  EXPECT_FALSE(NearestRank({}, 0.5, 0).has_value());
}

TEST(NearestRank, UnsupportedPercentileFailsTheRun) {
  Samples few;
  for (int i = 0; i < 50; ++i) few.Add(i);
  RunResult result;
  result.Attempt(50);
  result.PercentileMetric("p99_us", few, 0.99);
  EXPECT_FALSE(result.correct());
}

TEST(QuietWindows, KeepsTheLessStolenHalf) {
  EXPECT_EQ(QuietWindows({0.0, 0.0, 0.1, 0.0}, "windows"),
            (std::vector<bool>{true, true, false, true}));
  EXPECT_EQ(QuietWindows({0.2, 0.1, 0.3, 0.1}, "windows"),
            (std::vector<bool>{false, true, false, true}));
  EXPECT_TRUE(QuietWindows({}, "windows").empty());
  StealMeter meter;
  const double share = meter.Lap();
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
}

TEST(Staircase, AcceptsOnlyTheCurrentOrALaterGeneration) {
  const std::vector<std::vector<std::string>> expected = {
      {"a0", "b0"}, {"a1", "b0"}, {"a2", "b2"}};
  Staircase reader(&expected);
  EXPECT_TRUE(reader.Accept(1, "b0"));
  EXPECT_EQ(reader.generation(), 0u);
  EXPECT_TRUE(reader.Accept(0, "a1"));
  EXPECT_EQ(reader.generation(), 1u);
  EXPECT_TRUE(reader.Accept(1, "b0"));  // unchanged by the swap
  EXPECT_FALSE(reader.Accept(0, "a0"));  // flip back to generation 0
  EXPECT_FALSE(reader.Accept(0, "torn"));
  EXPECT_TRUE(reader.Accept(1, "b2"));
  EXPECT_EQ(reader.generation(), 2u);
}

// A one-view set small enough to build by hand.
gvex::ExplanationViewSet TinyViews(gvex::Graph* pattern) {
  gvex::Graph g;
  for (int t : {0, 1, 0}) g.AddNode(t);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  g.SetDefaultFeatures(2);
  pattern->AddNode(0);
  pattern->AddNode(1);
  EXPECT_TRUE(pattern->AddEdge(0, 1).ok());
  gvex::ExplanationView view;
  view.label = 0;
  view.patterns.push_back(*pattern);
  view.subgraphs.push_back({0, {0, 1, 2}, g, 1.0});
  gvex::ExplanationViewSet set;
  set.views.push_back(view);
  return set;
}

TEST(AnswerCheck, PlantedMismatchOverTheWireCountsAsFailed) {
  gvex::Graph pattern;
  ServeStack stack;
  const std::string path = "selftest_" + std::to_string(::getpid()) + ".sock";
  ASSERT_TRUE(stack.Start(TinyViews(&pattern), nullptr, path).ok());
  gvex::serve::Request req;
  req.type = gvex::serve::RequestType::kSupport;
  req.label = 0;
  req.graph = pattern;
  req.has_graph = true;
  std::vector<std::vector<std::string>> expected = {
      {Canonical(stack.server().Call(req))}};

  gvex::serve::SocketClient client;
  ASSERT_TRUE(client.Connect(stack.endpoint()).ok());
  req.id = 42;
  auto wire = client.Call(req);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(wire->ok());
  EXPECT_EQ(wire->support, 1u);  // one subgraph holds the pattern
  const std::string body = Canonical(*wire);

  RunResult result;
  Staircase honest(&expected);
  result.Attempt();
  if (!honest.Accept(0, body)) result.Fail(1, "mismatch");
  EXPECT_TRUE(result.correct());

  expected[0][0] = Canonical(gvex::serve::Response{});  // planted
  Staircase planted(&expected);
  result.Attempt();
  if (!planted.Accept(0, body)) result.Fail(1, "planted mismatch");
  EXPECT_FALSE(result.correct());
  EXPECT_EQ(result.attempted(), 2u);
  EXPECT_EQ(result.failed(), 1u);
  EXPECT_NE(result.Json().find("\"correct\": false"), std::string::npos);
}

TEST(ObsDelta, TwoRunsInOneProcessSeeTheirOwnCounts) {
  gvex::Graph pattern;
  gvex::ExplanationViewSet set = TinyViews(&pattern);
  const gvex::Graph& target = set.views[0].subgraphs[0].subgraph;
  auto run = [&] {
    gvex::MatchCache::Global().Clear();  // run boundary
    ObsDelta delta;
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(
          gvex::MatchCache::Global().HasMatch(pattern, target, {}));
    }
    return std::make_pair(delta.Counter("match_cache.misses"),
                          delta.Counter("match_cache.hits"));
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, std::make_pair(uint64_t{1}, uint64_t{2}));
  EXPECT_EQ(second, first);
}

TEST(ObsDelta, HistogramMeanCoversOnlyTheRun) {
  auto& hist = gvex::obs::Registry::Global().GetHistogram("selftest.value_us");
  hist.Record(1000);
  ObsDelta delta;
  hist.Record(10);
  hist.Record(30);
  EXPECT_EQ(delta.HistogramCount("selftest.value_us"), 2u);
  EXPECT_DOUBLE_EQ(delta.HistogramMean("selftest.value_us"), 20.0);
}

TEST(SelfTime, SubtractsDirectChildrenPerThread) {
  const std::vector<Span> spans = {
      {"a", 1, 1, 0, 100},   // children b, c
      {"b", 2, 1, 10, 30},   // child d
      {"d", 3, 1, 15, 5},
      {"c", 4, 1, 50, 10},
      {"a", 5, 2, 20, 40},  // another thread: no parent
  };
  const auto self = SelfTimeUs(spans);
  EXPECT_DOUBLE_EQ(self.at("a"), 60.0 + 40.0);
  EXPECT_DOUBLE_EQ(self.at("b"), 25.0);
  EXPECT_DOUBLE_EQ(self.at("c"), 10.0);
  EXPECT_DOUBLE_EQ(self.at("d"), 5.0);
}

TEST(Trace, ChromeJsonKeepsProgramAndBenchmarkSpans) {
  const std::string json = TraceJson(
      {{"vf2.match", 0, 1, 5, 2}, {"bench.call", 7, 1, 0, 10}});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"vf2.match\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"id\":7}"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
