#include "gvex/influence/influence.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "gvex/common/string_util.h"
#include "gvex/common/thread_pool.h"
#include "gvex/obs/obs.h"
#include "gvex/tensor/ops.h"

namespace gvex {
namespace {

// Exact backend: forward-mode differentiation with realized ReLU gates.
// For each source node u and input dimension j, propagate the tangent
// T^0 = e_u e_j^T through X^{i+1} = ReLU(S X^i W_i + b_i):
//   T^{i+1} = [pre_i > 0] ⊙ (S T^i W_i)
// and accumulate I1(v, u) = sum_j || T_j^k[v, :] ||_1.
Matrix ExactJacobianInfluence(const GcnClassifier& model, const Graph& g,
                              const GcnTrace& trace) {
  const size_t n = g.num_nodes();
  const size_t d_in = g.feature_dim();
  const size_t layers = model.num_layers();
  Matrix i1(n, n);

  // Gather the conv weights through the public parameter view: the first
  // `layers` parameter tensors are the conv weights (see GcnClassifier).
  std::vector<const Matrix*> params = model.Parameters();

  // Column view of S, built once: the seed loop needs S[*, u], and probing
  // trace.s.At(v, u) densely costs a per-cell row scan (O(n * nnz) over
  // the whole backend). Flat SoA CSC (col_ptr / row_idx / values) instead
  // of a vector-of-vectors: one counting-sort pass yields each column's
  // nonzeros in ascending v — the same visit order, no per-column heap
  // block. Workers share these read-only arrays.
  std::vector<uint32_t> col_ptr(n + 1, 0);
  std::vector<uint32_t> row_idx;
  std::vector<float> col_values;
  {
    const std::vector<size_t>& row_ptr = trace.s.row_ptr();
    const std::vector<size_t>& col_idx = trace.s.col_idx();
    const std::vector<float>& values = trace.s.values();
    size_t nnz = 0;
    for (size_t p = 0; p < values.size(); ++p) {
      if (values[p] == 0.0f) continue;
      ++col_ptr[col_idx[p] + 1];
      ++nnz;
    }
    for (size_t u = 0; u < n; ++u) col_ptr[u + 1] += col_ptr[u];
    row_idx.resize(nnz);
    col_values.resize(nnz);
    std::vector<uint32_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
    for (size_t v = 0; v < n; ++v) {
      for (size_t p = row_ptr[v]; p < row_ptr[v + 1]; ++p) {
        if (values[p] == 0.0f) continue;
        const size_t slot = cursor[col_idx[p]]++;
        row_idx[slot] = static_cast<uint32_t>(v);
        col_values[slot] = values[p];
      }
    }
  }

  // Source nodes are independent: each iteration reads shared inputs and
  // writes only column u of i1, so they fan out over the shared pool. The
  // layer-0 tangent buffer is hoisted out of the j loop (zeroed per j)
  // instead of reallocated n*d_in times.
  ThreadPool::Shared().ParallelFor(n, [&](size_t u) {
    const Matrix& w0 = *params[0];
    Matrix t0(n, w0.cols());
    for (size_t j = 0; j < d_in; ++j) {
      // Layer 0 applied to T^0 = e_u e_j^T: (S T^0 W)[v, :] = S[v,u] * W[j, :].
      std::fill(t0.data(), t0.data() + t0.size(), 0.0f);
      for (uint32_t p = col_ptr[u]; p < col_ptr[u + 1]; ++p) {
        const uint32_t v = row_idx[p];
        const float s_vu = col_values[p];
        for (size_t c = 0; c < w0.cols(); ++c) {
          t0.At(v, c) = s_vu * w0.At(j, c);
        }
      }
      // Gate through layer 0's pre-activation.
      for (size_t idx = 0; idx < t0.size(); ++idx) {
        if (trace.pre[0].data()[idx] <= 0.0f) t0.data()[idx] = 0.0f;
      }
      // Remaining layers.
      Matrix t = t0;
      for (size_t layer = 1; layer < layers; ++layer) {
        Matrix agg = trace.s.MultiplyDense(t);
        t = MatMul(agg, *params[layer]);
        for (size_t idx = 0; idx < t.size(); ++idx) {
          if (trace.pre[layer].data()[idx] <= 0.0f) t.data()[idx] = 0.0f;
        }
      }
      for (size_t v = 0; v < n; ++v) {
        i1.At(v, u) += t.RowL1Norm(v);
      }
    }
  });
  return i1;
}

// Random-walk backend: I1(v, u) = [S^k]_{vu} (expected-Jacobian surrogate).
Matrix RandomWalkInfluence(const CsrMatrix& s, size_t k) {
  const size_t n = s.n();
  Matrix p = Matrix::Identity(n);
  for (size_t i = 0; i < k; ++i) p = s.MultiplyDense(p);
  // p(v, u) already equals [S^k]_{vu}: row v collects mass arriving at v.
  return p;
}

// Of `orphaned` (the union of the balls of the influenced nodes that lost
// their last cover), keeps the elements that no ball of a surviving
// influenced node holds: exactly what the diversity union loses.
// `survives(u)` says whether u, set in `influenced`, stays influenced.
template <typename Survives>
void SubtractSurvivingBalls(const InfluenceAnalyzer& analyzer,
                            const DynamicBitset& influenced,
                            Survives&& survives, DynamicBitset* orphaned) {
  for (size_t u = influenced.FindNext(0);
       u < influenced.size() && orphaned->Any();
       u = influenced.FindNext(u + 1)) {
    if (survives(u)) {
      orphaned->Subtract(analyzer.Ball(static_cast<NodeId>(u)));
    }
  }
}

}  // namespace

Result<InfluenceAnalyzer> InfluenceAnalyzer::Build(
    const GcnClassifier& model, const Graph& graph,
    const InfluenceOptions& options) {
  if (graph.num_nodes() > 0 && !graph.has_features()) {
    return Status::InvalidArgument("graph lacks features");
  }
  GVEX_SPAN("influence.build");
  GVEX_COUNTER_INC("influence.builds");
  GVEX_LATENCY_US("influence.build_us");
  InfluenceAnalyzer a;
  a.n_ = graph.num_nodes();
  a.options_ = options;
  if (a.n_ == 0) return a;

  GcnTrace trace = model.Forward(graph);
  a.embeddings_ = trace.x.back();

  switch (options.backend) {
    case InfluenceBackend::kExactJacobian:
      if (a.n_ > options.exact_backend_node_limit) {
        return Status::FailedPrecondition(
            StrFormat("exact Jacobian backend limited to %zu nodes, got %zu",
                      options.exact_backend_node_limit, a.n_));
      }
      a.i1_ = ExactJacobianInfluence(model, graph, trace);
      break;
    case InfluenceBackend::kRandomWalk:
      a.i1_ = RandomWalkInfluence(trace.s, model.num_layers());
      break;
  }

  // I2 (Eq. 4): normalize each target row of I1 over sources.
  a.i2_ = Matrix(a.n_, a.n_);
  for (size_t v = 0; v < a.n_; ++v) {
    double row_sum = 0.0;
    for (size_t u = 0; u < a.n_; ++u) row_sum += a.i1_.At(v, u);
    if (row_sum <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / row_sum);
    for (size_t u = 0; u < a.n_; ++u) {
      a.i2_.At(v, u) = a.i1_.At(v, u) * inv;
    }
  }

  a.FinalizeSets();
  return a;
}

void InfluenceAnalyzer::FinalizeSets() {
  // Both loops write disjoint per-index bitsets from shared read-only
  // inputs, so they parallelize directly. The ball loop is the expensive
  // one (pairwise embedding distances).
  influenced_.assign(n_, DynamicBitset(n_));
  ThreadPool::Shared().ParallelFor(
      n_,
      [&](size_t u) {
        for (NodeId v = 0; v < n_; ++v) {
          if (i2_.At(v, u) >= options_.theta) influenced_[u].Set(v);
        }
      },
      /*cancel=*/nullptr, /*grain=*/16);
  ball_.assign(n_, DynamicBitset(n_));
  ThreadPool::Shared().ParallelFor(
      n_,
      [&](size_t v) {
        for (NodeId w = 0; w < n_; ++w) {
          if (NormalizedRowDistance(embeddings_, v, w) <= options_.radius) {
            ball_[v].Set(w);
          }
        }
      },
      /*cancel=*/nullptr, /*grain=*/16);
}

size_t InfluenceAnalyzer::InfluenceScore(const std::vector<NodeId>& vs) const {
  DynamicBitset acc(n_);
  for (NodeId u : vs) acc.UnionWith(influenced_[u]);
  return acc.Count();
}

size_t InfluenceAnalyzer::DiversityScore(const std::vector<NodeId>& vs) const {
  DynamicBitset influenced(n_);
  for (NodeId u : vs) influenced.UnionWith(influenced_[u]);
  DynamicBitset balls(n_);
  for (size_t v : influenced.ToVector()) {
    balls.UnionWith(ball_[v]);
  }
  return balls.Count();
}

InfluenceAccumulator::InfluenceAccumulator(const InfluenceAnalyzer* analyzer)
    : analyzer_(analyzer),
      cover_(analyzer->num_nodes(), 0),
      influence_union_(analyzer->num_nodes()),
      diversity_union_(analyzer->num_nodes()) {}

double InfluenceAccumulator::Score(float gamma) const {
  return static_cast<double>(influence_union_.Count()) +
         static_cast<double>(gamma) *
             static_cast<double>(diversity_union_.Count());
}

double InfluenceAccumulator::ScoreWith(NodeId v, float gamma) const {
  const DynamicBitset& inf_v = analyzer_->InfluencedBy(v);
  size_t new_influence = influence_union_.UnionCount(inf_v);
  // Diversity gains come only from newly influenced nodes' balls.
  DynamicBitset tentative = diversity_union_;
  DynamicBitset newly = inf_v;
  for (size_t idx : newly.ToVector()) {
    if (!influence_union_.Test(idx)) {
      tentative.UnionWith(analyzer_->Ball(static_cast<NodeId>(idx)));
    }
  }
  return static_cast<double>(new_influence) +
         static_cast<double>(gamma) * static_cast<double>(tentative.Count());
}

double InfluenceAccumulator::ScoreWithout(NodeId v, float gamma) const {
  const DynamicBitset& inf_v = analyzer_->InfluencedBy(v);
  // Nodes only v influences leave I; only their balls can leave D.
  size_t lost = 0;
  DynamicBitset orphaned;
  for (size_t u = inf_v.FindNext(0); u < inf_v.size();
       u = inf_v.FindNext(u + 1)) {
    if (cover_[u] != 1) continue;
    if (lost++ == 0) orphaned = DynamicBitset(inf_v.size());
    orphaned.UnionWith(analyzer_->Ball(static_cast<NodeId>(u)));
  }
  if (lost == 0) return Score(gamma);
  SubtractSurvivingBalls(
      *analyzer_, influence_union_,
      [&](size_t u) { return cover_[u] != 1 || !inf_v.Test(u); }, &orphaned);
  return static_cast<double>(influence_union_.Count() - lost) +
         static_cast<double>(gamma) *
             static_cast<double>(diversity_union_.Count() - orphaned.Count());
}

void InfluenceAccumulator::Add(NodeId v) {
  const DynamicBitset& inf_v = analyzer_->InfluencedBy(v);
  for (size_t u = inf_v.FindNext(0); u < inf_v.size();
       u = inf_v.FindNext(u + 1)) {
    if (cover_[u]++ == 0) {
      diversity_union_.UnionWith(analyzer_->Ball(static_cast<NodeId>(u)));
    }
  }
  influence_union_.UnionWith(inf_v);
}

void InfluenceAccumulator::Remove(NodeId v) {
  const DynamicBitset& inf_v = analyzer_->InfluencedBy(v);
  size_t lost = 0;
  DynamicBitset orphaned;
  for (size_t u = inf_v.FindNext(0); u < inf_v.size();
       u = inf_v.FindNext(u + 1)) {
    assert(cover_[u] > 0);
    if (--cover_[u] != 0) continue;
    influence_union_.Reset(u);
    if (lost++ == 0) orphaned = DynamicBitset(inf_v.size());
    orphaned.UnionWith(analyzer_->Ball(static_cast<NodeId>(u)));
  }
  if (lost == 0) return;
  SubtractSurvivingBalls(
      *analyzer_, influence_union_, [](size_t) { return true; }, &orphaned);
  diversity_union_.Subtract(orphaned);
}

void InfluenceAccumulator::Rebuild(const std::vector<NodeId>& vs) {
  std::fill(cover_.begin(), cover_.end(), 0);
  influence_union_.Clear();
  diversity_union_.Clear();
  for (NodeId v : vs) Add(v);
}

}  // namespace gvex
