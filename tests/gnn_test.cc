// Unit tests for the GCN classifier: shapes, invariances, finite-difference
// gradient checks (parameters and propagation entries), optimizer behaviour,
// training on a separable toy problem, and serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "gvex/common/rng.h"
#include "gvex/gnn/model.h"
#include "gvex/gnn/optimizer.h"
#include "gvex/gnn/serialize.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph_db.h"

namespace gvex {
namespace {

Graph MakeTriangle(float feature_scale = 1.0f) {
  Graph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.AddEdge(0, 2).ok());
  Matrix f(3, 4);
  Rng rng(99);
  for (size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = feature_scale * static_cast<float>(rng.NextGaussian());
  }
  EXPECT_TRUE(g.SetFeatures(std::move(f)).ok());
  return g;
}

GcnConfig SmallConfig() {
  GcnConfig c;
  c.input_dim = 4;
  c.hidden_dim = 8;
  c.num_layers = 2;
  c.num_classes = 3;
  c.seed = 11;
  return c;
}

TEST(GcnModelTest, CreateValidatesConfig) {
  GcnConfig bad = SmallConfig();
  bad.input_dim = 0;
  EXPECT_FALSE(GcnClassifier::Create(bad).ok());
  bad = SmallConfig();
  bad.num_classes = 1;
  EXPECT_FALSE(GcnClassifier::Create(bad).ok());
  EXPECT_TRUE(GcnClassifier::Create(SmallConfig()).ok());
}

TEST(GcnModelTest, ForwardShapesAndProbabilities) {
  auto model = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model.ok());
  Graph g = MakeTriangle();
  GcnTrace t = model->Forward(g);
  ASSERT_EQ(t.x.size(), 3u);  // input + 2 layers
  EXPECT_EQ(t.x.back().rows(), 3u);
  EXPECT_EQ(t.x.back().cols(), 8u);
  EXPECT_EQ(t.logits.size(), 3u);
  float sum = 0.0f;
  for (float p : t.probs) {
    EXPECT_GT(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GE(t.predicted(), 0);
  EXPECT_LT(t.predicted(), 3);
}

TEST(GcnModelTest, EmptyGraphYieldsNoLabel) {
  auto model = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model.ok());
  Graph empty;
  EXPECT_EQ(model->Predict(empty), GcnClassifier::kNoLabel);
  EXPECT_TRUE(model->PredictProba(empty).empty());
  EXPECT_FLOAT_EQ(model->ProbabilityOf(empty, 0), 0.0f);
}

TEST(GcnModelTest, DeterministicForward) {
  auto model = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model.ok());
  Graph g = MakeTriangle();
  auto p1 = model->PredictProba(g);
  auto p2 = model->PredictProba(g);
  EXPECT_EQ(p1, p2);
}

TEST(GcnModelTest, NodeRelabelingInvariance) {
  // GCN output must be invariant to node permutation of the same graph.
  auto model = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model.ok());
  Graph g = MakeTriangle();
  Graph permuted = g.InducedSubgraph({2, 0, 1});
  auto p1 = model->PredictProba(g);
  auto p2 = model->PredictProba(permuted);
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_NEAR(p1[i], p2[i], 1e-5f);
}

// Finite-difference check of parameter gradients.
TEST(GcnModelTest, ParameterGradientsMatchFiniteDifferences) {
  auto model_result = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model_result.ok());
  GcnClassifier model = std::move(model_result).ValueOrDie();
  Graph g = MakeTriangle();
  const ClassLabel y = 1;

  GcnGradients grads = model.ZeroGradients();
  GcnTrace trace = model.Forward(g);
  model.BackwardFromLabel(trace, y, &grads);

  auto params = model.MutableParameters();
  auto slots = GcnClassifier::GradientSlots(&grads);
  const float eps = 1e-3f;
  Rng rng(3);
  int checked = 0;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    // Probe a few random coordinates per tensor.
    for (int probe = 0; probe < 4; ++probe) {
      size_t j = rng.NextBounded(params[pi]->size());
      float saved = params[pi]->data()[j];
      params[pi]->data()[j] = saved + eps;
      GcnTrace tp = model.Forward(g);
      float lp = -std::log(std::max(tp.probs[y], 1e-12f));
      params[pi]->data()[j] = saved - eps;
      GcnTrace tm = model.Forward(g);
      float lm = -std::log(std::max(tm.probs[y], 1e-12f));
      params[pi]->data()[j] = saved;
      float numeric = (lp - lm) / (2.0f * eps);
      float analytic = slots[pi]->data()[j];
      EXPECT_NEAR(analytic, numeric, 5e-2f * std::max(1.0f, std::fabs(numeric)))
          << "param tensor " << pi << " coord " << j;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

// Finite-difference check of propagation-entry gradients (the hook used by
// GNNExplainer's edge-mask learning).
TEST(GcnModelTest, PropagationGradientsMatchFiniteDifferences) {
  auto model_result = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model_result.ok());
  GcnClassifier model = std::move(model_result).ValueOrDie();
  Graph g = MakeTriangle();
  const ClassLabel y = 2;

  CsrMatrix s = g.NormalizedPropagation();
  GcnTrace trace = model.ForwardWithPropagation(g.features(), s);
  std::vector<float> ds;
  model.BackwardToPropagation(trace, y, &ds);
  ASSERT_EQ(ds.size(), s.nnz());

  const float eps = 1e-3f;
  for (size_t k = 0; k < s.nnz(); ++k) {
    CsrMatrix sp = s;
    sp.mutable_values()[k] += eps;
    float lp = -std::log(std::max(
        model.ForwardWithPropagation(g.features(), sp).probs[y], 1e-12f));
    CsrMatrix sm = s;
    sm.mutable_values()[k] -= eps;
    float lm = -std::log(std::max(
        model.ForwardWithPropagation(g.features(), sm).probs[y], 1e-12f));
    float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(ds[k], numeric, 5e-2f * std::max(1.0f, std::fabs(numeric)))
        << "propagation entry " << k;
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(w) = ||w - target||^2 with Adam.
  Matrix w(1, 4, 0.0f);
  Matrix target(1, 4);
  target.SetRow(0, {1.0f, -2.0f, 0.5f, 3.0f});
  AdamConfig cfg;
  cfg.learning_rate = 0.05f;
  AdamOptimizer opt(cfg);
  Matrix grad(1, 4);
  for (int iter = 0; iter < 500; ++iter) {
    for (size_t j = 0; j < 4; ++j) {
      grad.At(0, j) = 2.0f * (w.At(0, j) - target.At(0, j));
    }
    std::vector<Matrix*> params{&w};
    std::vector<Matrix*> grads{&grad};
    opt.Step(params, grads);
  }
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(w.At(0, j), target.At(0, j), 0.05f);
  }
  EXPECT_EQ(opt.step_count(), 500);
}

// Two easily separable structure classes: triangles with "hot" features vs
// paths with "cold" features. Training must reach high test accuracy.
GraphDatabase MakeToyDatabase(size_t per_class, uint64_t seed) {
  GraphDatabase db;
  Rng rng(seed);
  for (size_t i = 0; i < per_class; ++i) {
    // Class 0: triangle, feature ~ +1.
    Graph g0;
    g0.AddNode(0);
    g0.AddNode(0);
    g0.AddNode(0);
    EXPECT_TRUE(g0.AddEdge(0, 1).ok());
    EXPECT_TRUE(g0.AddEdge(1, 2).ok());
    EXPECT_TRUE(g0.AddEdge(0, 2).ok());
    Matrix f0(3, 2);
    for (size_t j = 0; j < f0.size(); ++j) {
      f0.data()[j] = 1.0f + 0.1f * static_cast<float>(rng.NextGaussian());
    }
    EXPECT_TRUE(g0.SetFeatures(std::move(f0)).ok());
    db.Add(std::move(g0), 0);

    // Class 1: path, feature ~ -1.
    Graph g1;
    g1.AddNode(0);
    g1.AddNode(0);
    g1.AddNode(0);
    EXPECT_TRUE(g1.AddEdge(0, 1).ok());
    EXPECT_TRUE(g1.AddEdge(1, 2).ok());
    Matrix f1(3, 2);
    for (size_t j = 0; j < f1.size(); ++j) {
      f1.data()[j] = -1.0f + 0.1f * static_cast<float>(rng.NextGaussian());
    }
    EXPECT_TRUE(g1.SetFeatures(std::move(f1)).ok());
    db.Add(std::move(g1), 1);
  }
  return db;
}

TEST(TrainerTest, LearnsSeparableToyProblem) {
  GraphDatabase db = MakeToyDatabase(30, 5);
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 3);
  GcnConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  auto model = GcnClassifier::Create(cfg);
  ASSERT_TRUE(model.ok());
  TrainerConfig tc;
  tc.epochs = 200;
  tc.batch_size = 8;
  tc.adam.learning_rate = 5e-3f;
  Trainer trainer(tc);
  TrainReport report = trainer.Fit(&*model, db, split);
  EXPECT_GT(report.epochs_run, 0u);
  EXPECT_GE(report.test_accuracy, 0.9f)
      << "toy problem should be near-perfectly separable";
}

TEST(TrainerTest, AssignLabelsMatchesPredict) {
  GraphDatabase db = MakeToyDatabase(5, 6);
  GcnConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  auto model = GcnClassifier::Create(cfg);
  ASSERT_TRUE(model.ok());
  auto labels = AssignLabels(*model, db);
  ASSERT_EQ(labels.size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(labels[i], model->Predict(db.graph(i)));
  }
}

TEST(SerializeTest, ModelRoundTripPreservesOutputs) {
  auto model = GcnClassifier::Create(SmallConfig());
  ASSERT_TRUE(model.ok());
  Graph g = MakeTriangle();
  auto before = model->PredictProba(g);

  TextWriter out;
  ASSERT_TRUE(GcnSerializer::Write(*model, &out).ok());
  TextReader in(out.str());
  auto loaded = GcnSerializer::Read(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto after = loaded->PredictProba(g);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-5f);
  }
}

TEST(SerializeTest, RejectsCorruptModel) {
  TextReader in("wrong-magic 1 2 3");
  EXPECT_FALSE(GcnSerializer::Read(&in).ok());
}

}  // namespace
}  // namespace gvex
