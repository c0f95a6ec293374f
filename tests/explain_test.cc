// Tests for the GVEX core: EVerify, Psum, ApproxGVEX, StreamGVEX, view
// verification, and parallel generation — run against a real trained GCN
// on the synthetic Mutagenicity data (see test_util.h).
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/everify.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/psum.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/verifier.h"
#include "gvex/explain/view_io.h"
#include "gvex/matching/vf2.h"
#include "gvex/metrics/metrics.h"
#include "tests/test_util.h"

namespace gvex {
namespace {

using testutil::MutagenicityContext;

Configuration TestConfig() {
  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.gamma = 0.5f;
  config.default_coverage = {0, 12};
  return config;
}

TEST(FixtureTest, ModelLearnsTheTask) {
  const auto& ctx = MutagenicityContext();
  EXPECT_GE(ctx.test_accuracy, 0.9f);
}

TEST(EVerifyTest, EmptySetNeverExplains) {
  const auto& ctx = MutagenicityContext();
  EVerify verifier(&ctx.model);
  EVerifyResult r = verifier.Verify(ctx.db.graph(0), {}, ctx.assigned[0]);
  EXPECT_FALSE(r.IsExplanation());
}

TEST(EVerifyTest, FullGraphIsConsistentButHasEmptyRemainder) {
  const auto& ctx = MutagenicityContext();
  EVerify verifier(&ctx.model);
  const Graph& g = ctx.db.graph(0);
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  EVerifyResult r = verifier.Verify(g, all, ctx.assigned[0]);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.counterfactual);  // empty remainder has no label
  EXPECT_FLOAT_EQ(r.prob_remainder, 0.0f);
}

TEST(EVerifyTest, ProbabilitiesAreConsistentWithFlags) {
  const auto& ctx = MutagenicityContext();
  EVerify verifier(&ctx.model);
  const Graph& g = ctx.db.graph(2);
  // Half the nodes, arbitrary.
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.num_nodes() / 2; ++v) half.push_back(v);
  EVerifyResult r = verifier.Verify(g, half, ctx.assigned[2]);
  if (r.consistent) {
    EXPECT_GE(r.prob_subgraph, 0.5f);
  }
  if (!r.counterfactual && ctx.db.num_classes() == 2) {
    EXPECT_GE(r.prob_remainder, 0.5f);
  }
}

TEST(PsumTest, CoversAllNodes) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  // Summarize a couple of real molecule fragments.
  std::vector<Graph> subgraphs;
  subgraphs.push_back(ctx.db.graph(0).InducedSubgraph({0, 1, 2, 3}));
  subgraphs.push_back(ctx.db.graph(2).InducedSubgraph({0, 1, 2}));
  PsumResult result = Psum(subgraphs, config);
  EXPECT_TRUE(result.full_node_coverage);
  EXPECT_FALSE(result.patterns.empty());
  EXPECT_GE(result.edge_loss, 0.0);
  EXPECT_LE(result.edge_loss, 1.0);

  // Re-verify coverage independently via PMatch.
  for (const Graph& sub : subgraphs) {
    CoverageResult cov = ComputeCoverage(result.patterns, sub, config.match);
    EXPECT_EQ(cov.covered_nodes.Count(), sub.num_nodes());
  }
}

TEST(PsumTest, EmptyInputIsTriviallyCovered) {
  PsumResult result = Psum({}, TestConfig());
  EXPECT_TRUE(result.full_node_coverage);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.edge_loss, 0.0);
}

TEST(ApproxGvexTest, ExplainGraphSatisfiesC2AndBounds) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  ApproxGvex solver(&ctx.model, config);
  EVerify verifier(&ctx.model);

  size_t explained = 0;
  for (size_t gi = 0; gi < 10; ++gi) {
    ClassLabel l = ctx.assigned[gi];
    auto sub = solver.ExplainGraph(ctx.db.graph(gi), gi, l);
    if (!sub.ok()) {
      EXPECT_TRUE(sub.status().IsInfeasible()) << sub.status().ToString();
      continue;
    }
    ++explained;
    EXPECT_LE(sub->nodes.size(), config.default_coverage.upper);
    EXPECT_GE(sub->nodes.size(), 1u);
    EXPECT_LT(sub->nodes.size(), ctx.db.graph(gi).num_nodes())
        << "never the whole graph";
    EVerifyResult r = verifier.Verify(ctx.db.graph(gi), sub->nodes, l);
    EXPECT_TRUE(r.IsExplanation());
    EXPECT_GT(sub->explainability, 0.0);
    // Node ids sorted and unique.
    std::set<NodeId> uniq(sub->nodes.begin(), sub->nodes.end());
    EXPECT_EQ(uniq.size(), sub->nodes.size());
  }
  EXPECT_GE(explained, 5u) << "most graphs should be explainable";
}

TEST(ApproxGvexTest, RejectsEmptyGraphAndBadConstraints) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  ApproxGvex solver(&ctx.model, config);
  Graph empty;
  EXPECT_TRUE(solver.ExplainGraph(empty, 0, 1).status().IsInvalidArgument());

  Configuration bad = TestConfig();
  bad.default_coverage = {10, 5};
  ApproxGvex bad_solver(&ctx.model, bad);
  EXPECT_TRUE(bad_solver.ExplainGraph(ctx.db.graph(0), 0, ctx.assigned[0])
                  .status()
                  .IsInvalidArgument());
}

TEST(ApproxGvexTest, LowerBoundIsEnforced) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  config.default_coverage = {6, 12};
  ApproxGvex solver(&ctx.model, config);
  for (size_t gi = 0; gi < 6; ++gi) {
    auto sub = solver.ExplainGraph(ctx.db.graph(gi), gi, ctx.assigned[gi]);
    if (sub.ok()) {
      EXPECT_GE(sub->nodes.size(), 6u);
    }
  }
}

TEST(ApproxGvexTest, ViewPassesFullVerification) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  ApproxGvex solver(&ctx.model, config);
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_FALSE(view->subgraphs.empty());
  EXPECT_FALSE(view->patterns.empty());
  EXPECT_GT(view->explainability, 0.0);

  ViewVerification check =
      VerifyExplanationView(*view, ctx.db, ctx.model, config);
  EXPECT_TRUE(check.ok()) << check.detail;
  EXPECT_GT(view->Compression(), 0.5) << "patterns should compress well";
}

TEST(ApproxGvexTest, HigherUpperBoundNeverLowersExplainability) {
  const auto& ctx = MutagenicityContext();
  Configuration small = TestConfig();
  small.default_coverage = {0, 5};
  Configuration large = TestConfig();
  large.default_coverage = {0, 12};
  ApproxGvex s_solver(&ctx.model, small);
  ApproxGvex l_solver(&ctx.model, large);
  // Compare on graphs where both succeed (monotone f under larger budget).
  for (size_t gi = 0; gi < 8; ++gi) {
    auto a = s_solver.ExplainGraph(ctx.db.graph(gi), gi, ctx.assigned[gi]);
    auto b = l_solver.ExplainGraph(ctx.db.graph(gi), gi, ctx.assigned[gi]);
    if (a.ok() && b.ok()) {
      EXPECT_GE(b->explainability + 1e-9, a->explainability);
    }
  }
}

TEST(ApproxGvexTest, FidelityIsStrong) {
  const auto& ctx = MutagenicityContext();
  ApproxGvex solver(&ctx.model, TestConfig());
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(view.ok());
  FidelityReport fid =
      EvaluateFidelity(ctx.model, ctx.db, ToGraphExplanations(*view));
  EXPECT_GT(fid.num_graphs, 0u);
  EXPECT_GT(fid.fidelity_plus, 0.5) << "counterfactual: removal flips";
  EXPECT_LT(fid.fidelity_minus, 0.1) << "consistent: subgraph keeps label";
  EXPECT_GT(fid.sparsity, 0.3) << "explanations are concise";
}

TEST(StreamGvexTest, ExplainsAndVerifies) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  StreamGvex solver(&ctx.model, config);
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_FALSE(view->subgraphs.empty());
  ViewVerification check =
      VerifyExplanationView(*view, ctx.db, ctx.model, config);
  EXPECT_TRUE(check.ok()) << check.detail;
  EXPECT_GT(solver.stats().accepts, 0u);
}

TEST(StreamGvexTest, AnytimeQualityWithinFactorOfBatch) {
  // The 1/4-approximation is w.r.t. the optimum; empirically the stream
  // should land within a modest factor of ApproxGVEX's explainability.
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  ApproxGvex approx(&ctx.model, config);
  StreamGvex stream(&ctx.model, config);
  auto av = approx.ExplainLabel(ctx.db, ctx.assigned, 1);
  auto sv = stream.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(av.ok());
  ASSERT_TRUE(sv.ok());
  ASSERT_FALSE(av->subgraphs.empty());
  ASSERT_FALSE(sv->subgraphs.empty());
  double per_graph_a = av->explainability /
                       static_cast<double>(av->subgraphs.size());
  double per_graph_s = sv->explainability /
                       static_cast<double>(sv->subgraphs.size());
  EXPECT_GE(per_graph_s, 0.25 * per_graph_a);
}

TEST(StreamGvexTest, NodeOrderChangesLittle) {
  // Appendix A.8: different stream orders keep most important patterns
  // and similar explainability.
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  StreamGvex solver(&ctx.model, config);
  auto natural = solver.ExplainLabel(ctx.db, ctx.assigned, 1, nullptr, 0);
  auto shuffled = solver.ExplainLabel(ctx.db, ctx.assigned, 1, nullptr, 99);
  ASSERT_TRUE(natural.ok());
  ASSERT_TRUE(shuffled.ok());
  ASSERT_GT(natural->explainability, 0.0);
  double ratio = shuffled->explainability / natural->explainability;
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 1.0 / 0.35);
}

TEST(StreamGvexTest, SwapRuleRespectsThreshold) {
  // Stats sanity: with a tight budget there must be swaps or skips, and
  // accepts never exceed u_l per graph.
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  config.default_coverage = {0, 4};
  StreamGvex solver(&ctx.model, config);
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(view.ok());
  EXPECT_GT(solver.stats().swaps + solver.stats().skips, 0u);
  for (const auto& s : view->subgraphs) {
    EXPECT_LE(s.nodes.size(), 4u);
  }
}

TEST(ReducePatternsTest, KeepsCoverageDropsRedundant) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  Graph sub = ctx.db.graph(0).InducedSubgraph({0, 1, 2});
  // Redundant patterns: the full path covers everything; singletons are
  // then unnecessary (greedy picks the path first).
  std::vector<Graph> patterns;
  patterns.push_back(ToPattern(sub));
  Graph single;
  single.AddNode(sub.node_type(0));
  patterns.push_back(single);
  PatternReduction red = ReducePatterns(patterns, {sub}, config);
  EXPECT_EQ(red.patterns.size(), 1u);
  CoverageResult cov = ComputeCoverage(red.patterns, sub, config.match);
  EXPECT_EQ(cov.covered_nodes.Count(), sub.num_nodes());
}

TEST(ParallelTest, MatchesSerialOutput) {
  // ApproxGvex::Explain and ParallelApproxExplain at any thread count write
  // the same view bytes.
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  ApproxGvex serial(&ctx.model, config);
  auto serial_set = serial.Explain(ctx.db, ctx.assigned, {0, 1});
  ASSERT_TRUE(serial_set.ok());
  TextWriter serial_bytes;
  ASSERT_TRUE(WriteViewSet(*serial_set, &serial_bytes).ok());
  EXPECT_EQ(serial.stats().graphs_attempted,
            GraphDatabase::LabelGroup(ctx.assigned, 0).size() +
                GraphDatabase::LabelGroup(ctx.assigned, 1).size());
  for (size_t threads : {1, 4}) {
    ParallelExplainOptions options;
    options.num_threads = threads;
    auto parallel_set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned,
                                              {0, 1}, config, options);
    ASSERT_TRUE(parallel_set.ok()) << threads << " threads";
    TextWriter parallel_bytes;
    ASSERT_TRUE(WriteViewSet(*parallel_set, &parallel_bytes).ok());
    EXPECT_EQ(parallel_bytes.str(), serial_bytes.str())
        << threads << " threads";
  }
}

TEST(ViewTest, SummaryAndMetrics) {
  ExplanationView view;
  view.label = 1;
  ExplanationSubgraph s;
  s.graph_index = 0;
  s.nodes = {0, 1, 2};
  s.subgraph.AddNode(0);
  s.subgraph.AddNode(0);
  s.subgraph.AddNode(0);
  ASSERT_TRUE(s.subgraph.AddEdge(0, 1).ok());
  ASSERT_TRUE(s.subgraph.AddEdge(1, 2).ok());
  view.subgraphs.push_back(s);
  Graph p;
  p.AddNode(0);
  p.AddNode(0);
  ASSERT_TRUE(p.AddEdge(0, 1).ok());
  view.patterns.push_back(p);
  EXPECT_EQ(view.TotalNodes(), 3u);
  EXPECT_EQ(view.TotalEdges(), 2u);
  EXPECT_EQ(view.PatternNodes(), 2u);
  // compression = 1 - (2+1)/(3+2) = 0.4
  EXPECT_NEAR(view.Compression(), 0.4, 1e-9);
  EXPECT_NE(view.Summary().find("label=1"), std::string::npos);

  ExplanationViewSet set;
  set.views.push_back(view);
  EXPECT_EQ(set.ForLabel(1), &set.views[0]);
  EXPECT_EQ(set.ForLabel(7), nullptr);
}

}  // namespace
}  // namespace gvex
