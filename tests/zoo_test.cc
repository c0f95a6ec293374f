// Explainer zoo (gvex::zoo): route-config artifact round-trips, canonical
// scorecard encoding, and the acceptance pin — evaluating a served route
// over the ordinary request path reproduces the direct in-process
// scorecard byte-for-byte.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gvex/cli/cli.h"
#include "gvex/datasets/datasets.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph_io.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"
#include "gvex/zoo/factory.h"
#include "gvex/zoo/zoo.h"
#include "test_util.h"

namespace gvex {
namespace zoo {
namespace {

ExplainerRouteConfig MakeConfig(const std::string& route, ExplainerKind kind,
                                uint64_t seed, uint64_t budget_ms,
                                uint64_t max_nodes) {
  ExplainerRouteConfig c;
  c.route = route;
  c.kind = kind;
  c.seed = seed;
  c.budget_ms = budget_ms;
  c.max_nodes = max_nodes;
  return c;
}

/// A small GCN trained on SYN (BA + planted motifs), built once per test
/// binary: the evaluation gate only scores datasets that export planted
/// ground truth, and the model's input_dim must match SYN's features.
const GcnClassifier& SynModel() {
  static const GcnClassifier* model = [] {
    datasets::BaMotifOptions d;
    d.num_graphs = 40;
    GraphDatabase db = datasets::MakeBaMotif(d);
    auto* m = new GcnClassifier;
    GcnConfig mc;
    mc.input_dim = db.feature_dim();
    mc.hidden_dim = 16;
    mc.num_layers = 3;
    mc.num_classes = 2;
    *m = GcnClassifier::Create(mc).ValueOrDie();
    DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
    TrainerConfig tc;
    tc.epochs = 60;
    tc.adam.learning_rate = 5e-3f;
    Trainer(tc).Fit(m, db, split);
    return m;
  }();
  return *model;
}

// A fast eval spec: SYN at scale 0.05 (5 graphs), capped to 3.
EvalSpec FastSpec() {
  EvalSpec spec;
  spec.scale = 0.05;
  spec.seed = 3;
  spec.graphs = 3;
  return spec;
}

std::string LastNonEmptyLine(const std::string& text) {
  std::istringstream in(text);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

// ---- gvexzoo-v1 artifact ------------------------------------------------------

TEST(ZooArtifactTest, EncodeParseRoundTrip) {
  std::vector<ExplainerRouteConfig> configs = {
      MakeConfig("ge", ExplainerKind::kGnnExplainer, 0, 0, 6),
      MakeConfig("sx", ExplainerKind::kSubgraphX, 99, 250, 8),
      MakeConfig("gvex", ExplainerKind::kGvex, 7, 0, 12),
  };
  std::string artifact = EncodeZooArtifact(configs);
  EXPECT_TRUE(IsZooArtifact(artifact));
  auto parsed = ParseZooArtifact(artifact);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, configs);
  // Canonical: re-encoding the parse is byte-identical.
  EXPECT_EQ(EncodeZooArtifact(*parsed), artifact);
}

TEST(ZooArtifactTest, StrictParseRejectsMalformedArtifacts) {
  const std::string good =
      "gvexzoo-v1\n"
      "route ge kind GE seed 0 budget_ms 0 max_nodes 6\n"
      "end\n";
  ASSERT_TRUE(ParseZooArtifact(good).ok());
  // Missing terminator.
  EXPECT_FALSE(ParseZooArtifact("gvexzoo-v1\n"
                                "route ge kind GE seed 0 budget_ms 0 "
                                "max_nodes 6\n")
                   .ok());
  // Unknown explainer kind.
  EXPECT_FALSE(ParseZooArtifact("gvexzoo-v1\n"
                                "route ge kind NOPE seed 0 budget_ms 0 "
                                "max_nodes 6\nend\n")
                   .ok());
  // Duplicate route.
  EXPECT_FALSE(ParseZooArtifact("gvexzoo-v1\n"
                                "route ge kind GE seed 0 budget_ms 0 "
                                "max_nodes 6\n"
                                "route ge kind SX seed 0 budget_ms 0 "
                                "max_nodes 6\nend\n")
                   .ok());
  // max_nodes of zero can never produce an explanation.
  EXPECT_FALSE(ParseZooArtifact("gvexzoo-v1\n"
                                "route ge kind GE seed 0 budget_ms 0 "
                                "max_nodes 0\nend\n")
                   .ok());
  // Trailing garbage on a row.
  EXPECT_FALSE(ParseZooArtifact("gvexzoo-v1\n"
                                "route ge kind GE seed 0 budget_ms 0 "
                                "max_nodes 6 extra\nend\n")
                   .ok());
  // Wrong magic is not a zoo artifact at all.
  EXPECT_FALSE(IsZooArtifact("gvexviews-v1\n"));
  EXPECT_FALSE(ParseZooArtifact("bogus\nend\n").ok());
}

TEST(ZooArtifactTest, KindNamesRoundTrip) {
  for (ExplainerKind kind :
       {ExplainerKind::kGnnExplainer, ExplainerKind::kSubgraphX,
        ExplainerKind::kGStarX, ExplainerKind::kGcf, ExplainerKind::kGvex}) {
    auto back = KindFromName(KindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(KindFromName("BOGUS").ok());
}

// ---- eval spec ----------------------------------------------------------------

TEST(ZooEvalSpecTest, ParseAndEchoRoundTrip) {
  auto defaults = ParseEvalSpec("");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->dataset, "SYN");
  EXPECT_DOUBLE_EQ(defaults->scale, 0.15);

  auto spec = ParseEvalSpec("dataset=SYN scale=0.25 seed=7 graphs=16");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->scale, 0.25);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->graphs, 16u);
  auto again = ParseEvalSpec(EvalSpecToString(*spec));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(EvalSpecToString(*again), EvalSpecToString(*spec));

  EXPECT_FALSE(ParseEvalSpec("scale=0").ok());
  EXPECT_FALSE(ParseEvalSpec("scale=2").ok());
  EXPECT_FALSE(ParseEvalSpec("bogus=1").ok());
  EXPECT_FALSE(ParseEvalSpec("graphs=notanumber").ok());
}

// ---- scorecard JSON -----------------------------------------------------------

TEST(ZooScorecardTest, JsonRoundTripIsByteStable) {
  Scorecard card;
  card.route = "ge";
  card.kind = "GE";
  card.dataset = "SYN";
  card.scale = 0.15;
  card.seed = 3;
  card.graphs = 5;
  card.fidelity_plus = 0.3333333333333333;
  card.fidelity_minus = 0.1;
  card.sparsity = 0.9142857142857143;
  card.accuracy = 0.4545454545454545;
  std::string json = ScorecardToJson(card);
  auto back = ScorecardFromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, card);
  EXPECT_EQ(ScorecardToJson(*back), json);

  EXPECT_FALSE(ScorecardFromJson("{}").ok());
  EXPECT_FALSE(ScorecardFromJson("not json").ok());
  EXPECT_FALSE(ScorecardFromJson(json + "trailing").ok());
}

// ---- ground-truth export ------------------------------------------------------

TEST(ZooTruthTest, TruthCaptureLeavesDatabaseByteIdentical) {
  auto plain = datasets::MakeByName("SYN", 0.05, 3);
  ASSERT_TRUE(plain.ok());
  datasets::MotifTruth truth;
  auto with_truth = datasets::MakeByNameWithTruth("SYN", 0.05, 3, &truth);
  ASSERT_TRUE(with_truth.ok());
  TextWriter a, b;
  ASSERT_TRUE(WriteDatabase(*plain, &a).ok());
  ASSERT_TRUE(WriteDatabase(*with_truth, &b).ok());
  EXPECT_EQ(a.str(), b.str());
  ASSERT_EQ(truth.nodes.size(), with_truth->size());
  for (const auto& planted : truth.nodes) {
    EXPECT_GE(planted.size(), 10u);  // two disjoint motifs of >= 5 nodes
  }
}

TEST(ZooTruthTest, OnlySynExportsTruth) {
  datasets::MotifTruth truth;
  auto mut = datasets::MakeByNameWithTruth("MUT", 0.1, 0, &truth);
  EXPECT_FALSE(mut.ok());
  EXPECT_EQ(mut.status().code(), StatusCode::kUnimplemented);
}

// ---- factory ------------------------------------------------------------------

TEST(ZooFactoryTest, EveryKindProducesAWorkingExplainer) {
  // Baseline kinds over the SYN model; the GVEX kind over the confident
  // Mutagenicity fixture, where a consistent+counterfactual witness is
  // known to exist (the same setup serve_test builds its views from).
  datasets::MotifTruth truth;
  auto db = datasets::MakeByNameWithTruth("SYN", 0.05, 3, &truth);
  ASSERT_TRUE(db.ok());
  const Graph& g = db->graph(0);
  ClassLabel label = SynModel().Predict(g);
  for (ExplainerKind kind :
       {ExplainerKind::kGnnExplainer, ExplainerKind::kGcf}) {
    auto config = MakeConfig("r", kind, 0, 0, 6);
    auto explainer = MakeExplainer(config, &SynModel());
    ASSERT_NE(explainer, nullptr);
    auto nodes = explainer->ExplainGraph(g, label, config.max_nodes);
    ASSERT_TRUE(nodes.ok()) << KindName(kind) << ": "
                            << nodes.status().ToString();
    EXPECT_FALSE(nodes->empty());
    EXPECT_LE(nodes->size(), config.max_nodes);
  }
  const auto& ctx = testutil::MutagenicityContext();
  auto gvex_config = MakeConfig("r", ExplainerKind::kGvex, 0, 0, 12);
  auto gvex = MakeExplainer(gvex_config, &ctx.model);
  ASSERT_NE(gvex, nullptr);
  EXPECT_EQ(gvex->name(), "GVEX");
  auto nodes = gvex->ExplainGraph(ctx.db.graph(0), ctx.assigned[0],
                                  gvex_config.max_nodes);
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
  EXPECT_FALSE(nodes->empty());
  EXPECT_LE(nodes->size(), gvex_config.max_nodes);
}

// ---- direct evaluation --------------------------------------------------------

TEST(ZooEvaluateTest, CrippledRouteScoresStrictlyWorse) {
  auto crippled = MakeConfig("crippled", ExplainerKind::kGnnExplainer, 0, 0, 1);
  std::vector<GraphScore> rows;
  auto card = EvaluateRoute(crippled, SynModel(), FastSpec(), nullptr, &rows);
  ASSERT_TRUE(card.ok()) << card.status().ToString();
  EXPECT_EQ(card->graphs, 3u);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_LE(row.explanation_nodes, 1u);
    EXPECT_GE(row.truth_nodes, 10u);
  }
  // One node can recover at most 1/10 of a >= 10-node planted truth, so
  // the accuracy gate at any floor above 0.1 must trip this route.
  EXPECT_LE(card->accuracy, 0.1 + 1e-12);
}

TEST(ZooEvaluateTest, EvaluationIsDeterministic) {
  auto config = MakeConfig("ge", ExplainerKind::kGnnExplainer, 0, 0, 6);
  auto first = EvaluateRoute(config, SynModel(), FastSpec());
  auto second = EvaluateRoute(config, SynModel(), FastSpec());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ScorecardToJson(*first), ScorecardToJson(*second));
}

TEST(ZooEvaluateTest, CancelledTokenStopsEvaluation) {
  CancellationToken token;
  token.RequestCancel(Status::Timeout("deadline exceeded"));
  auto config = MakeConfig("ge", ExplainerKind::kGnnExplainer, 0, 0, 6);
  auto card = EvaluateRoute(config, SynModel(), FastSpec(), &token);
  EXPECT_FALSE(card.ok());
}

// ---- the served path ----------------------------------------------------------

class ZooServedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.InstallModel(std::make_shared<const GcnClassifier>(SynModel()));
    manager_ = std::make_unique<ZooManager>(&registry_);
    ASSERT_TRUE(
        manager_
            ->Configure(
                {MakeConfig("ge", ExplainerKind::kGnnExplainer, 0, 0, 6),
                 MakeConfig("crippled", ExplainerKind::kGnnExplainer, 0, 0, 1)})
            .ok());
    server_ = std::make_unique<serve::ExplanationServer>(&registry_);
    server_->SetEvaluateHandler(
        [this](const serve::Request& req, const CancellationToken* cancel) {
          return manager_->Handle(req, cancel);
        });
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  serve::Response Evaluate(const std::string& route, const std::string& text) {
    serve::Request req;
    req.type = serve::RequestType::kEvaluate;
    req.route = route;
    req.text = text;
    return server_->Call(req);
  }

  serve::ViewRegistry registry_;
  std::unique_ptr<ZooManager> manager_;
  std::unique_ptr<serve::ExplanationServer> server_;
};

// The acceptance pin: the scorecard a served route streams back over the
// ordinary request path is byte-identical to the direct in-process
// EvaluateRoute result for the same (config, model, spec).
TEST_F(ZooServedTest, ServedScorecardMatchesDirectByteForByte) {
  EvalSpec spec = FastSpec();
  serve::Response resp = Evaluate("ge", EvalSpecToString(spec));
  ASSERT_TRUE(resp.ok()) << resp.message;

  auto config = MakeConfig("ge", ExplainerKind::kGnnExplainer, 0, 0, 6);
  std::vector<GraphScore> rows;
  auto direct = EvaluateRoute(config, SynModel(), spec, nullptr, &rows);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  EXPECT_EQ(LastNonEmptyLine(resp.text), ScorecardToJson(*direct));
  std::ostringstream expected;
  for (const auto& row : rows) expected << GraphScoreRow(row) << "\n";
  expected << ScorecardToJson(*direct) << "\n";
  EXPECT_EQ(resp.text, expected.str());

  auto parsed = ScorecardFromJson(LastNonEmptyLine(resp.text));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->graphs, 3u);
  EXPECT_EQ(parsed->kind, "GE");
}

TEST_F(ZooServedTest, InstallAndStatusFormsShareTheWireType) {
  // Install replaces the table over the wire (publish --zoo's path).
  std::string artifact = EncodeZooArtifact(
      {MakeConfig("fresh", ExplainerKind::kGcf, 5, 0, 4)});
  serve::Response installed = Evaluate("", artifact);
  ASSERT_TRUE(installed.ok()) << installed.message;
  EXPECT_NE(installed.text.find("installed 1 zoo routes"), std::string::npos);

  serve::Response status = Evaluate("", "status");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.text,
            "route fresh kind GCF seed 5 budget_ms 0 max_nodes 4\n");

  // The old routes are gone: evaluating one is now kNotFound.
  serve::Response gone = Evaluate("ge", EvalSpecToString(FastSpec()));
  EXPECT_EQ(gone.code, StatusCode::kNotFound);

  serve::Response malformed = Evaluate("", "gvexzoo-v1\nnot a row\nend\n");
  EXPECT_EQ(malformed.code, StatusCode::kInvalidArgument);
}

TEST(ZooServedModelTest, EvaluationWithoutAServedModelFailsPrecondition) {
  serve::ViewRegistry registry;  // nothing published anywhere
  ZooManager manager(&registry);
  ASSERT_TRUE(
      manager.Configure({MakeConfig("ge", ExplainerKind::kGnnExplainer, 0, 0,
                                    6)})
          .ok());
  serve::Request req;
  req.type = serve::RequestType::kEvaluate;
  req.route = "ge";
  serve::Response resp = manager.Handle(req, nullptr);
  EXPECT_EQ(resp.code, StatusCode::kFailedPrecondition);
}

// ---- the CLI gate -------------------------------------------------------------

TEST_F(ZooServedTest, EvaluateVerbGateTripsWithDistinctExitCode) {
  serve::SocketServer socket(server_.get());
  const std::string path = ::testing::TempDir() + "gvex_zoo_test_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".sock";
  ASSERT_TRUE(socket.Start(serve::Endpoint::Unix(path)).ok());

  const std::vector<std::string> base = {
      "evaluate", "--socket", path,           "--route", "crippled",
      "--scale",  "0.05",     "--seed", "3",  "--graphs", "2"};
  // Ungated: the crippled route still evaluates cleanly.
  EXPECT_EQ(cli::Run(base), 0);
  // Gated above the ceiling a 1-node explanation can reach: exit 16.
  std::vector<std::string> gated = base;
  gated.push_back("--min-accuracy");
  gated.push_back("0.5");
  EXPECT_EQ(cli::Run(gated), 16);
  socket.Stop();
}

}  // namespace
}  // namespace zoo
}  // namespace gvex
