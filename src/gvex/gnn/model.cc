#include "gvex/gnn/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gvex/common/string_util.h"
#include "gvex/obs/obs.h"
#include "gvex/tensor/ops.h"

namespace gvex {

void GcnGradients::Scale(float s) {
  for (auto& w : conv_weights) ScaleInPlace(&w, s);
  for (auto& b : conv_biases) ScaleInPlace(&b, s);
  ScaleInPlace(&fc_weight, s);
  ScaleInPlace(&fc_bias, s);
}

namespace {

// argmax of the logits, the first index on ties.
ClassLabel ArgMax(const std::vector<float>& logits) {
  if (logits.empty()) return GcnClassifier::kNoLabel;
  return static_cast<ClassLabel>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

// Infer's per-thread buffers. The activations ping-pong between x[0] and
// x[1], so a thread allocates only for a graph larger than any before.
struct InferScratch {
  Matrix agg;
  Matrix x[2];
  std::vector<float> pooled;
  std::vector<size_t> argmax;
  std::vector<float> logits;
};

thread_local InferScratch tls_infer_scratch;

}  // namespace

ClassLabel GcnTrace::predicted() const { return ArgMax(logits); }

Result<GcnClassifier> GcnClassifier::Create(const GcnConfig& config) {
  if (config.input_dim == 0 || config.hidden_dim == 0 ||
      config.num_layers == 0 || config.num_classes < 2) {
    return Status::InvalidArgument(
        StrFormat("invalid GcnConfig: input=%zu hidden=%zu layers=%zu "
                  "classes=%zu",
                  config.input_dim, config.hidden_dim, config.num_layers,
                  config.num_classes));
  }
  GcnClassifier m;
  m.config_ = config;
  Rng rng(config.seed);
  for (size_t i = 0; i < config.num_layers; ++i) {
    size_t in = (i == 0) ? config.input_dim : config.hidden_dim;
    m.conv_weights_.push_back(
        Matrix::GlorotUniform(in, config.hidden_dim, &rng));
    m.conv_biases_.push_back(Matrix(1, config.hidden_dim));
  }
  m.fc_weight_ =
      Matrix::GlorotUniform(config.hidden_dim, config.num_classes, &rng);
  m.fc_bias_ = Matrix(1, config.num_classes);
  return m;
}

GcnTrace GcnClassifier::Forward(const Graph& g) const {
  if (g.num_nodes() == 0) return GcnTrace{};
  assert(g.has_features() && g.feature_dim() == config_.input_dim);
  return ForwardWithPropagation(
      g.features(),
      g.PropagationOperator(config_.propagation, config_.EdgeTypeWeights()));
}

void GcnClassifier::Layer(const CsrMatrix& s, const Matrix& x, size_t i,
                          bool relu, Matrix* agg, Matrix* out) const {
  // out = ReLU?(S * X * W + b)
  s.MultiplyDense(x, agg);
  MatMulBias(*agg, conv_weights_[i], conv_biases_[i].Row(0), relu, out);
}

void GcnClassifier::Readout(const Matrix& x, std::vector<float>* pooled,
                            std::vector<size_t>* argmax,
                            std::vector<float>* logits,
                            std::vector<float>* probs) const {
  ColumnMax(x, pooled, argmax);

  logits->assign(config_.num_classes, 0.0f);
  for (size_t c = 0; c < config_.num_classes; ++c) {
    float acc = fc_bias_.At(0, c);
    for (size_t h = 0; h < config_.hidden_dim; ++h) {
      acc += (*pooled)[h] * fc_weight_.At(h, c);
    }
    (*logits)[c] = acc;
  }

  // Stable softmax.
  float mx = *std::max_element(logits->begin(), logits->end());
  probs->resize(config_.num_classes);
  float sum = 0.0f;
  for (size_t c = 0; c < config_.num_classes; ++c) {
    (*probs)[c] = std::exp((*logits)[c] - mx);
    sum += (*probs)[c];
  }
  for (auto& p : *probs) p /= sum;
}

GcnTrace GcnClassifier::ForwardWithPropagation(const Matrix& x0,
                                               const CsrMatrix& s) const {
  GcnTrace trace;
  if (x0.rows() == 0) return trace;
  assert(x0.rows() == s.n());
  GVEX_COUNTER_INC("gnn.forward_calls");
  GVEX_LATENCY_US("gnn.forward_us");
  trace.s = s;
  trace.x.push_back(x0);
  trace.pre.reserve(config_.num_layers);
  Matrix agg;
  for (size_t i = 0; i < config_.num_layers; ++i) {
    Matrix pre;
    Layer(s, trace.x.back(), i, /*relu=*/false, &agg, &pre);
    trace.x.push_back(Relu(pre));
    trace.pre.push_back(std::move(pre));
  }
  Readout(trace.x.back(), &trace.pooled, &trace.argmax, &trace.logits,
          &trace.probs);
  return trace;
}

GcnPrediction GcnClassifier::Infer(const Graph& g) const {
  if (g.num_nodes() == 0) return GcnPrediction{};
  assert(g.has_features() && g.feature_dim() == config_.input_dim);
  return Infer(g.features(), g.PropagationOperator(
                                 config_.propagation,
                                 config_.EdgeTypeWeights()));
}

GcnPrediction GcnClassifier::Infer(const Matrix& x0,
                                   const CsrMatrix& s) const {
  GcnPrediction out;
  if (x0.rows() == 0) return out;
  assert(x0.rows() == s.n());
  GVEX_COUNTER_INC("gnn.forward_calls");
  GVEX_LATENCY_US("gnn.forward_us");
  InferScratch& t = tls_infer_scratch;
  const Matrix* x = &x0;
  for (size_t i = 0; i < config_.num_layers; ++i) {
    Matrix* next = &t.x[i % 2];
    Layer(s, *x, i, /*relu=*/true, &t.agg, next);
    x = next;
  }
  Readout(*x, &t.pooled, &t.argmax, &t.logits, &out.probs);
  out.predicted = ArgMax(t.logits);
  return out;
}

float GcnClassifier::ProbabilityOf(const Graph& g, ClassLabel label) const {
  if (label < 0) return 0.0f;
  GcnPrediction p = Infer(g);
  if (static_cast<size_t>(label) >= p.probs.size()) return 0.0f;
  return p.probs[static_cast<size_t>(label)];
}

namespace {

// dlogits for softmax cross-entropy: probs - onehot(y); returns loss.
float CrossEntropyGrad(const std::vector<float>& probs, ClassLabel y,
                       std::vector<float>* dlogits) {
  assert(y >= 0 && static_cast<size_t>(y) < probs.size());
  *dlogits = probs;
  (*dlogits)[static_cast<size_t>(y)] -= 1.0f;
  float p = std::max(probs[static_cast<size_t>(y)], 1e-12f);
  return -std::log(p);
}

}  // namespace

float GcnClassifier::BackwardFromLabel(const GcnTrace& trace, ClassLabel y,
                                       GcnGradients* grads) const {
  assert(!trace.logits.empty());
  GVEX_COUNTER_INC("gnn.backward_calls");
  std::vector<float> dlogits;
  float loss = CrossEntropyGrad(trace.probs, y, &dlogits);

  // FC head: logits = pooled . W + b.
  std::vector<float> dpooled(config_.hidden_dim, 0.0f);
  for (size_t c = 0; c < config_.num_classes; ++c) {
    grads->fc_bias.At(0, c) += dlogits[c];
    for (size_t h = 0; h < config_.hidden_dim; ++h) {
      grads->fc_weight.At(h, c) += trace.pooled[h] * dlogits[c];
      dpooled[h] += fc_weight_.At(h, c) * dlogits[c];
    }
  }

  // Max-pool routes each column's gradient to its winning row.
  size_t n = trace.x.back().rows();
  Matrix dx(n, config_.hidden_dim);
  for (size_t h = 0; h < config_.hidden_dim; ++h) {
    dx.At(trace.argmax[h], h) = dpooled[h];
  }

  // Conv layers, last to first. pre_i = S x_i W_i + b_i ; x_{i+1}=ReLU(pre_i).
  for (size_t layer = config_.num_layers; layer-- > 0;) {
    Matrix dpre = ReluBackward(trace.pre[layer], dx);
    // Bias gradient: column sums of dpre.
    for (size_t r = 0; r < dpre.rows(); ++r) {
      const float* p = dpre.RowPtr(r);
      for (size_t c = 0; c < dpre.cols(); ++c) {
        grads->conv_biases[layer].At(0, c) += p[c];
      }
    }
    // t = S^T dpre; dW = x^T t; dx_prev = t W^T.
    Matrix t = trace.s.TransposeMultiplyDense(dpre);
    AddInPlace(&grads->conv_weights[layer],
               MatMulTransA(trace.x[layer], t));
    if (layer > 0) dx = MatMulTransB(t, conv_weights_[layer]);
  }
  return loss;
}

float GcnClassifier::BackwardToPropagation(const GcnTrace& trace, ClassLabel y,
                                           std::vector<float>* ds) const {
  assert(!trace.logits.empty());
  std::vector<float> dlogits;
  float loss = CrossEntropyGrad(trace.probs, y, &dlogits);

  std::vector<float> dpooled(config_.hidden_dim, 0.0f);
  for (size_t c = 0; c < config_.num_classes; ++c) {
    for (size_t h = 0; h < config_.hidden_dim; ++h) {
      dpooled[h] += fc_weight_.At(h, c) * dlogits[c];
    }
  }
  size_t n = trace.x.back().rows();
  Matrix dx(n, config_.hidden_dim);
  for (size_t h = 0; h < config_.hidden_dim; ++h) {
    dx.At(trace.argmax[h], h) = dpooled[h];
  }

  ds->assign(trace.s.nnz(), 0.0f);
  for (size_t layer = config_.num_layers; layer-- > 0;) {
    Matrix dpre = ReluBackward(trace.pre[layer], dx);
    // dL/dS_rc = dot(dpre[r], Z[c]) with Z = x_layer W_layer.
    Matrix z = MatMul(trace.x[layer], conv_weights_[layer]);
    const auto& row_ptr = trace.s.row_ptr();
    const auto& col_idx = trace.s.col_idx();
    for (size_t r = 0; r < n; ++r) {
      const float* dp = dpre.RowPtr(r);
      for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const float* zr = z.RowPtr(col_idx[k]);
        float acc = 0.0f;
        for (size_t h = 0; h < config_.hidden_dim; ++h) acc += dp[h] * zr[h];
        (*ds)[k] += acc;
      }
    }
    if (layer > 0) {
      Matrix t = trace.s.TransposeMultiplyDense(dpre);
      dx = MatMulTransB(t, conv_weights_[layer]);
    }
  }
  return loss;
}

Matrix GcnClassifier::InputLogitGradient(const GcnTrace& trace,
                                         ClassLabel y) const {
  assert(!trace.logits.empty());
  std::vector<float> dlogits(config_.num_classes, 0.0f);
  dlogits[static_cast<size_t>(y)] = 1.0f;
  return BackpropLogitsToInput(trace, dlogits);
}

Matrix GcnClassifier::BackpropLogitsToInput(
    const GcnTrace& trace, const std::vector<float>& dlogits) const {
  std::vector<float> dpooled(config_.hidden_dim, 0.0f);
  for (size_t c = 0; c < config_.num_classes; ++c) {
    for (size_t h = 0; h < config_.hidden_dim; ++h) {
      dpooled[h] += fc_weight_.At(h, c) * dlogits[c];
    }
  }
  size_t n = trace.x.back().rows();
  Matrix dx(n, config_.hidden_dim);
  for (size_t h = 0; h < config_.hidden_dim; ++h) {
    dx.At(trace.argmax[h], h) = dpooled[h];
  }
  // Propagate all the way to the input layer (cf. BackwardFromLabel, which
  // stops at layer 0's parameters).
  for (size_t layer = config_.num_layers; layer-- > 0;) {
    Matrix dpre = ReluBackward(trace.pre[layer], dx);
    Matrix t = trace.s.TransposeMultiplyDense(dpre);
    dx = MatMulTransB(t, conv_weights_[layer]);
  }
  return dx;  // n x input_dim
}

GcnGradients GcnClassifier::ZeroGradients() const {
  GcnGradients g;
  for (size_t i = 0; i < config_.num_layers; ++i) {
    g.conv_weights.push_back(
        Matrix(conv_weights_[i].rows(), conv_weights_[i].cols()));
    g.conv_biases.push_back(Matrix(1, config_.hidden_dim));
  }
  g.fc_weight = Matrix(config_.hidden_dim, config_.num_classes);
  g.fc_bias = Matrix(1, config_.num_classes);
  return g;
}

std::vector<Matrix*> GcnClassifier::MutableParameters() {
  std::vector<Matrix*> params;
  for (auto& w : conv_weights_) params.push_back(&w);
  for (auto& b : conv_biases_) params.push_back(&b);
  params.push_back(&fc_weight_);
  params.push_back(&fc_bias_);
  return params;
}

std::vector<const Matrix*> GcnClassifier::Parameters() const {
  std::vector<const Matrix*> params;
  for (const auto& w : conv_weights_) params.push_back(&w);
  for (const auto& b : conv_biases_) params.push_back(&b);
  params.push_back(&fc_weight_);
  params.push_back(&fc_bias_);
  return params;
}

std::vector<Matrix*> GcnClassifier::GradientSlots(GcnGradients* grads) {
  std::vector<Matrix*> slots;
  for (auto& w : grads->conv_weights) slots.push_back(&w);
  for (auto& b : grads->conv_biases) slots.push_back(&b);
  slots.push_back(&grads->fc_weight);
  slots.push_back(&grads->fc_bias);
  return slots;
}

}  // namespace gvex
