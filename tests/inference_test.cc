// The trace-free inference path pinned to the traced one: Infer against
// Forward, Graph::InducedPropagation against InducedSubgraph followed by
// the original PropagationOperator algorithm, and EVerify::Verify against
// its original algorithm (InducedSubgraph and RemoveNodes, each followed
// by Forward).
// Every comparison is bit for bit. InferConcurrencyTest runs the
// per-thread scratch from four threads at once (a TSan suite).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gvex/common/rng.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/everify.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph.h"

namespace gvex {
namespace {

using Kind = Graph::PropagationKind;

constexpr Kind kKinds[] = {Kind::kGcnSymmetric, Kind::kMeanNeighbor,
                           Kind::kSumNeighbor};

// Non-unit weights whose float sums depend on the order they are added
// in, so a degree accumulated in another order shows in the bits.
const std::vector<float> kEdgeWeights = {0.1f, 0.7f, 1.3f, 2.9f};

uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

// Seeded ENZ graphs: ~20-40 nodes, the shape EVerify runs on.
const GraphDatabase& EnzGraphs() {
  static const GraphDatabase* db =
      new GraphDatabase(datasets::MakeByName("ENZ", 0.05, 7).ValueOrDie());
  return *db;
}

// A random graph with edge types 0-4 (type 4 is past kEdgeWeights and
// weighs 1) and Gaussian features. Directed graphs get reciprocal pairs,
// whose two entries the operator merges.
Graph RandomTypedGraph(size_t n, bool directed, uint64_t seed) {
  Rng rng(seed);
  Graph g(directed);
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng.NextBounded(3)));
  }
  for (size_t e = 0; e < 3 * n; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    const EdgeType type = static_cast<EdgeType>(rng.NextBounded(5));
    if (u == v || g.HasEdge(u, v)) continue;
    EXPECT_TRUE(g.AddEdge(u, v, type).ok());
    if (directed && rng.NextBool(0.4) && !g.HasEdge(v, u)) {
      EXPECT_TRUE(g.AddEdge(v, u, type).ok());
    }
  }
  Matrix f(n, 5);
  for (size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  EXPECT_TRUE(g.SetFeatures(std::move(f)).ok());
  return g;
}

GcnClassifier MakeModel(size_t input_dim, Kind kind, bool weighted,
                        uint64_t seed) {
  GcnConfig c;
  c.input_dim = input_dim;
  c.hidden_dim = 32;
  c.num_layers = 3;
  c.num_classes = 6;
  c.seed = seed;
  c.propagation = kind;
  if (weighted) c.edge_type_weights = kEdgeWeights;
  GcnClassifier model = GcnClassifier::Create(c).ValueOrDie();
  // Create() zeroes the biases; give every parameter some noise so a
  // dropped or misplaced bias add shows.
  Rng rng(seed);
  for (Matrix* p : model.MutableParameters()) {
    for (size_t i = 0; i < p->size(); ++i) {
      p->data()[i] += 0.2f * static_cast<float>(rng.NextGaussian());
    }
  }
  return model;
}

// A seeded node set of `g` in random (unsorted) order.
std::vector<NodeId> RandomNodeSet(const Graph& g, Rng* rng) {
  const size_t k = 1 + rng->NextBounded(g.num_nodes());
  std::vector<NodeId> nodes;
  for (size_t i : rng->SampleWithoutReplacement(g.num_nodes(), k)) {
    nodes.push_back(static_cast<NodeId>(i));
  }
  return nodes;
}

// The propagation operator as Graph::PropagationOperator computed it
// before the induced builder: walk g's own adjacency, collect (row, col,
// value) triplets, then sum duplicates in triplet order and sort by
// (row, col). The oracle for InducedPropagation, independent of it and
// of CsrMatrix::FromTriplets.
struct ReferenceOperator {
  std::vector<size_t> row_ptr, col_idx;
  std::vector<float> values;
};

ReferenceOperator BuildReferenceOperator(const Graph& g, Kind kind,
                                         const std::vector<float>* weights) {
  const size_t n = g.num_nodes();
  auto type_weight = [&](EdgeType t) -> float {
    if (weights == nullptr || t < 0 ||
        static_cast<size_t>(t) >= weights->size()) {
      return 1.0f;
    }
    return (*weights)[static_cast<size_t>(t)];
  };
  struct SymEdge {
    size_t u, v;
    float w;
  };
  std::vector<float> deg(n, 1.0f);
  std::vector<SymEdge> sym_edges;
  for (NodeId u = 0; u < n; ++u) {
    for (const Neighbor& nb : g.neighbors(u)) {
      if (g.directed() || u < nb.node) {
        const float w = type_weight(nb.edge_type);
        sym_edges.push_back({u, nb.node, w});
        deg[u] += w;
        deg[nb.node] += w;
      }
    }
  }
  std::vector<float> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) inv_sqrt[i] = 1.0f / std::sqrt(deg[i]);
  auto scale = [&](size_t u, size_t v, float w) -> float {
    switch (kind) {
      case Kind::kGcnSymmetric:
        return w * inv_sqrt[u] * inv_sqrt[v];
      case Kind::kMeanNeighbor:
        return w / deg[u];
      case Kind::kSumNeighbor:
        return w;
    }
    return w;
  };
  std::map<std::pair<size_t, size_t>, float> entries;
  auto add = [&](size_t r, size_t c, float v) {
    auto [it, inserted] = entries.emplace(std::make_pair(r, c), v);
    if (!inserted) it->second += v;
  };
  for (size_t i = 0; i < n; ++i) add(i, i, scale(i, i, 1.0f));
  for (const SymEdge& e : sym_edges) {
    add(e.u, e.v, scale(e.u, e.v, e.w));
    add(e.v, e.u, scale(e.v, e.u, e.w));
  }
  ReferenceOperator ref;
  ref.row_ptr.assign(n + 1, 0);
  for (const auto& [rc, v] : entries) {
    ++ref.row_ptr[rc.first + 1];
    ref.col_idx.push_back(rc.second);
    ref.values.push_back(v);
  }
  for (size_t i = 0; i < n; ++i) ref.row_ptr[i + 1] += ref.row_ptr[i];
  return ref;
}

void ExpectSameOperator(const CsrMatrix& got, const ReferenceOperator& want) {
  ASSERT_EQ(got.n() + 1, want.row_ptr.size());
  EXPECT_EQ(got.row_ptr(), want.row_ptr);
  EXPECT_EQ(got.col_idx(), want.col_idx);
  ASSERT_EQ(got.values().size(), want.values.size());
  for (size_t i = 0; i < got.values().size(); ++i) {
    ASSERT_EQ(Bits(got.values()[i]), Bits(want.values[i])) << "entry " << i;
  }
}

void ExpectSameOperator(const CsrMatrix& got, const CsrMatrix& want) {
  ASSERT_EQ(got.n(), want.n());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (size_t i = 0; i < got.values().size(); ++i) {
    ASSERT_EQ(Bits(got.values()[i]), Bits(want.values()[i])) << "entry " << i;
  }
}

void ExpectSameMatrix(const Matrix& got, const Matrix& want) {
  ASSERT_TRUE(got.SameShape(want))
      << got.ShapeString() << " vs " << want.ShapeString();
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got.data()[i]), Bits(want.data()[i])) << "flat " << i;
  }
}

void ExpectSameProbs(const std::vector<float>& got,
                     const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(Bits(got[c]), Bits(want[c])) << "class " << c;
  }
}

void ExpectInferMatchesForward(const GcnClassifier& model, const Graph& g) {
  const GcnTrace trace = model.Forward(g);
  const GcnPrediction pred = model.Infer(g);
  EXPECT_EQ(pred.predicted, trace.predicted());
  ExpectSameProbs(pred.probs, trace.probs);
}

// ---- Infer vs Forward --------------------------------------------------------

TEST(GcnInferTest, MatchesForwardBitForBitOnEveryKind) {
  const GraphDatabase& db = EnzGraphs();
  ASSERT_GE(db.size(), 4u);
  Graph one_node;
  one_node.AddNode(0);
  one_node.SetDefaultFeatures(db.feature_dim(), 0.5f);
  uint64_t seed = 40;
  for (Kind kind : kKinds) {
    for (bool weighted : {false, true}) {
      SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                      << " weighted " << weighted);
      const GcnClassifier model =
          MakeModel(db.feature_dim(), kind, weighted, ++seed);
      const GcnPrediction empty = model.Infer(Graph());
      EXPECT_EQ(empty.predicted, GcnClassifier::kNoLabel);
      EXPECT_TRUE(empty.probs.empty());
      ExpectInferMatchesForward(model, one_node);
      for (size_t i = 0; i < 4; ++i) {
        ExpectInferMatchesForward(model, db.graph(i));
      }
      // Directed, typed and reciprocal edges.
      const GcnClassifier typed = MakeModel(5, kind, weighted, ++seed);
      ExpectInferMatchesForward(typed, RandomTypedGraph(33, true, seed));
      ExpectInferMatchesForward(typed, RandomTypedGraph(17, false, seed));
    }
  }
}

TEST(GcnInferTest, PredictionHelpersAgreeWithInfer) {
  const GraphDatabase& db = EnzGraphs();
  const GcnClassifier model =
      MakeModel(db.feature_dim(), Kind::kGcnSymmetric, false, 3);
  const Graph& g = db.graph(1);
  const GcnPrediction pred = model.Infer(g);
  EXPECT_EQ(model.Predict(g), pred.predicted);
  ExpectSameProbs(model.PredictProba(g), pred.probs);
  EXPECT_EQ(Bits(model.ProbabilityOf(g, 2)), Bits(pred.probs[2]));
  EXPECT_EQ(model.ProbabilityOf(g, -1), 0.0f);
  EXPECT_EQ(model.ProbabilityOf(g, 6), 0.0f);
}

// ---- InducedPropagation vs InducedSubgraph -----------------------------------

TEST(InducedPropagationTest, MatchesInducedSubgraphOperatorBitForBit) {
  const GraphDatabase& db = EnzGraphs();
  std::vector<std::tuple<Graph, const char*>> graphs = {
      {db.graph(0), "enz"},
      {RandomTypedGraph(40, false, 5), "undirected typed"},
      {RandomTypedGraph(40, true, 6), "directed reciprocal"},
  };
  Rng rng(17);
  for (const auto& [g, name] : graphs) {
    for (Kind kind : kKinds) {
      for (const std::vector<float>* weights :
           {static_cast<const std::vector<float>*>(nullptr), &kEdgeWeights}) {
        SCOPED_TRACE(testing::Message()
                     << name << " kind " << static_cast<int>(kind)
                     << " weighted " << (weights != nullptr));
        // The whole graph: PropagationOperator is the builder over all
        // nodes in id order.
        ExpectSameOperator(g.PropagationOperator(kind, weights),
                           BuildReferenceOperator(g, kind, weights));

        for (int trial = 0; trial < 6; ++trial) {
          // An unsorted order, and its complement in ascending order.
          std::vector<NodeId> order = RandomNodeSet(g, &rng);
          std::vector<NodeId> rest;
          const Graph remainder = g.RemoveNodes(order, &rest);
          for (const auto& [nodes, sub] :
               {std::make_pair(order, g.InducedSubgraph(order)),
                std::make_pair(rest, remainder)}) {
            Matrix x;
            const CsrMatrix s = g.InducedPropagation(nodes, kind, weights, &x);
            ExpectSameOperator(s, BuildReferenceOperator(sub, kind, weights));
            ExpectSameOperator(s, sub.PropagationOperator(kind, weights));
            ExpectSameMatrix(x, sub.features());
          }
        }
      }
    }
  }
}

TEST(InducedPropagationTest, FeaturelessGraphYieldsEmptyFeatures) {
  Graph g;
  g.AddNode(0);
  g.AddNode(1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  const std::vector<NodeId> order = {1, 0};
  Matrix x(3, 3, 1.0f);
  ExpectSameOperator(g.InducedPropagation(order, Kind::kGcnSymmetric,
                                          nullptr, &x),
                     g.InducedSubgraph(order).PropagationOperator(
                         Kind::kGcnSymmetric));
  EXPECT_TRUE(x.empty());
  EXPECT_EQ(g.InducedPropagation({}, Kind::kSumNeighbor, nullptr).n(), 0u);
}

// ---- EVerify vs its original algorithm ---------------------------------------

// EVerify::Verify as it was before the operator builder: materialize
// G_s and G \ G_s, then run the traced forward on each.
EVerifyResult OracleVerify(const GcnClassifier& model, const Graph& g,
                           const std::vector<NodeId>& nodes, ClassLabel l) {
  EVerifyResult result;
  if (nodes.empty() || l < 0) return result;
  const GcnTrace sub = model.Forward(g.InducedSubgraph(nodes));
  result.consistent = sub.predicted() == l;
  if (static_cast<size_t>(l) < sub.probs.size()) {
    result.prob_subgraph = sub.probs[static_cast<size_t>(l)];
  }
  const Graph remainder = g.RemoveNodes(nodes);
  if (remainder.num_nodes() == 0) {
    result.counterfactual = true;
  } else {
    const GcnTrace rem = model.Forward(remainder);
    result.counterfactual = rem.predicted() != l;
    if (static_cast<size_t>(l) < rem.probs.size()) {
      result.prob_remainder = rem.probs[static_cast<size_t>(l)];
    }
  }
  return result;
}

void ExpectSameVerdict(const EVerifyResult& got, const EVerifyResult& want) {
  EXPECT_EQ(got.consistent, want.consistent);
  EXPECT_EQ(got.counterfactual, want.counterfactual);
  EXPECT_EQ(Bits(got.prob_subgraph), Bits(want.prob_subgraph));
  EXPECT_EQ(Bits(got.prob_remainder), Bits(want.prob_remainder));
}

TEST(EVerifyOracleTest, MatchesMaterializedSubgraphsOnSeededNodeSets) {
  const GraphDatabase& db = EnzGraphs();
  Rng rng(23);
  uint64_t seed = 60;
  for (Kind kind : kKinds) {
    for (bool weighted : {false, true}) {
      const GcnClassifier model =
          MakeModel(db.feature_dim(), kind, weighted, ++seed);
      const EVerify verifier(&model);
      for (size_t i = 0; i < db.size(); ++i) {
        const Graph& g = db.graph(i);
        for (int trial = 0; trial < 4; ++trial) {
          const std::vector<NodeId> nodes = RandomNodeSet(g, &rng);
          const ClassLabel l = static_cast<ClassLabel>(rng.NextBounded(6));
          SCOPED_TRACE(testing::Message()
                       << "kind " << static_cast<int>(kind) << " weighted "
                       << weighted << " graph " << i << " |nodes| "
                       << nodes.size() << " label " << l);
          ExpectSameVerdict(verifier.Verify(g, nodes, l),
                            OracleVerify(model, g, nodes, l));
        }
      }
      // Directed graphs with reciprocal edges and typed edges.
      const GcnClassifier typed = MakeModel(5, kind, weighted, ++seed);
      const EVerify typed_verifier(&typed);
      const Graph g = RandomTypedGraph(30, true, seed);
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<NodeId> nodes = RandomNodeSet(g, &rng);
        ExpectSameVerdict(typed_verifier.Verify(g, nodes, 1),
                          OracleVerify(typed, g, nodes, 1));
      }
    }
  }
}

// ---- per-thread scratch under concurrency ------------------------------------

TEST(InferConcurrencyTest, FourThreadsOnOneModelMatchTheSerialResults) {
  const GraphDatabase& db = EnzGraphs();
  const GcnClassifier model =
      MakeModel(db.feature_dim(), Kind::kGcnSymmetric, true, 77);
  const EVerify verifier(&model);
  constexpr size_t kThreads = 4;

  // Thread t works on graphs t, t + 4, ...: different sizes, so each
  // thread's scratch is resized under it while the others run.
  struct Work {
    std::vector<size_t> graphs;
    std::vector<std::vector<NodeId>> node_sets;
    std::vector<GcnPrediction> predictions;
    std::vector<EVerifyResult> verdicts;
  };
  std::vector<Work> serial(kThreads);
  Rng rng(5);
  for (size_t i = 0; i < db.size(); ++i) {
    Work& w = serial[i % kThreads];
    w.graphs.push_back(i);
    w.node_sets.push_back(RandomNodeSet(db.graph(i), &rng));
    w.predictions.push_back(model.Infer(db.graph(i)));
    w.verdicts.push_back(verifier.Verify(db.graph(i), w.node_sets.back(), 0));
  }

  std::vector<Work> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Work& in = serial[t];
      Work& out = concurrent[t];
      for (int round = 0; round < 20; ++round) {
        out.predictions.clear();
        out.verdicts.clear();
        for (size_t j = 0; j < in.graphs.size(); ++j) {
          const Graph& g = db.graph(in.graphs[j]);
          out.predictions.push_back(model.Infer(g));
          out.verdicts.push_back(verifier.Verify(g, in.node_sets[j], 0));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(concurrent[t].predictions.size(), serial[t].graphs.size());
    for (size_t j = 0; j < serial[t].graphs.size(); ++j) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " item " << j);
      EXPECT_EQ(concurrent[t].predictions[j].predicted,
                serial[t].predictions[j].predicted);
      ExpectSameProbs(concurrent[t].predictions[j].probs,
                      serial[t].predictions[j].probs);
      ExpectSameVerdict(concurrent[t].verdicts[j], serial[t].verdicts[j]);
    }
  }
}

}  // namespace
}  // namespace gvex
