// GcnClassifier: the k-layer graph convolutional network of Eq. 1, with a
// max-pool readout and a fully connected head — the architecture the paper
// trains for every dataset (§6.1: 3 conv layers, hidden dim 128, max pool,
// FC). Implemented from scratch with explicit forward traces and manual
// backprop so the same machinery powers training, inference (EVerify), and
// mask-gradient baselines (GNNExplainer).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/common/rng.h"
#include "gvex/graph/graph.h"
#include "gvex/tensor/csr.h"
#include "gvex/tensor/matrix.h"

namespace gvex {

/// \brief Architecture hyper-parameters.
struct GcnConfig {
  size_t input_dim = 0;
  size_t hidden_dim = 64;
  size_t num_layers = 3;  // k in the paper
  size_t num_classes = 2;
  uint64_t seed = 42;
  /// Optional edge-type weights applied inside the propagation operator
  /// (the paper's edge-feature future-work direction). Empty = every edge
  /// weighs 1 (plain GCN).
  std::vector<float> edge_type_weights;
  /// Message-passing aggregator. GVEX is model-agnostic over any
  /// "S · X · W" message-passing scheme; GCN (Eq. 1) is the paper's
  /// evaluation model, the SAGE-mean and GIN-sum flavors exercise the
  /// model-agnostic claim.
  Graph::PropagationKind propagation = Graph::PropagationKind::kGcnSymmetric;

  /// edge_type_weights in the form the propagation builders take: null
  /// when empty.
  const std::vector<float>* EdgeTypeWeights() const {
    return edge_type_weights.empty() ? nullptr : &edge_type_weights;
  }
};

/// \brief Parameter gradients, shape-matched to the model parameters.
struct GcnGradients {
  std::vector<Matrix> conv_weights;  // [L] input/hidden x hidden
  std::vector<Matrix> conv_biases;   // [L] 1 x hidden
  Matrix fc_weight;                  // hidden x classes
  Matrix fc_bias;                    // 1 x classes

  void Scale(float s);
};

/// \brief Everything the forward pass computed, retained for backprop and
/// for explainers that need intermediate node embeddings.
struct GcnTrace {
  CsrMatrix s;                 // propagation operator used
  std::vector<Matrix> x;       // x[0] = input features; x[i] = layer-i output
  std::vector<Matrix> pre;     // pre[i] = pre-activation of layer i+1
  std::vector<float> pooled;   // max-pooled graph embedding (hidden)
  std::vector<size_t> argmax;  // row winning each pooled column
  std::vector<float> logits;   // num_classes
  std::vector<float> probs;    // softmax(logits)

  ClassLabel predicted() const;
};

/// \brief What inference returns: the label and the class probabilities,
/// without the trace.
struct GcnPrediction {
  ClassLabel predicted = -1;  ///< GcnClassifier::kNoLabel for empty graphs
  std::vector<float> probs;   ///< softmax(logits); empty for empty graphs
};

/// \brief The GNN-based classifier M. Immutable architecture; parameters
/// mutate only through the optimizer during training.
class GcnClassifier {
 public:
  /// Glorot-initialized model.
  static Result<GcnClassifier> Create(const GcnConfig& config);

  const GcnConfig& config() const { return config_; }
  size_t num_layers() const { return config_.num_layers; }
  size_t num_classes() const { return config_.num_classes; }

  // ---- inference -----------------------------------------------------------

  /// Full forward pass on a graph. Graphs with zero nodes yield an empty
  /// trace whose predicted() is kNoLabel.
  GcnTrace Forward(const Graph& g) const;

  /// Forward with a caller-supplied feature matrix and propagation operator
  /// (the hook GNNExplainer uses to inject a masked adjacency).
  GcnTrace ForwardWithPropagation(const Matrix& x0, const CsrMatrix& s) const;

  /// The inference forward: the same layers and readout as Forward, and
  /// the same bits, but it keeps no trace. Activations live in per-thread
  /// scratch buffers, and the bias add and ReLU run in the GEMM's store.
  /// Empty graphs yield {kNoLabel, {}}. Counts as a forward in the
  /// gnn.forward_calls / gnn.forward_us metrics.
  GcnPrediction Infer(const Graph& g) const;
  GcnPrediction Infer(const Matrix& x0, const CsrMatrix& s) const;

  /// Class probabilities; uniform is never returned for empty graphs —
  /// callers must treat kNoLabel specially.
  std::vector<float> PredictProba(const Graph& g) const {
    return Infer(g).probs;
  }

  /// argmax label, or kNoLabel for empty graphs.
  ClassLabel Predict(const Graph& g) const { return Infer(g).predicted; }

  /// Probability assigned to `label` (0 for empty graphs).
  float ProbabilityOf(const Graph& g, ClassLabel label) const;

  // ---- training ------------------------------------------------------------

  /// Cross-entropy loss for the trace against `y`; accumulates parameter
  /// gradients into `grads` (which must be shape-initialized via
  /// ZeroGradients). Returns the loss value.
  float BackwardFromLabel(const GcnTrace& trace, ClassLabel y,
                          GcnGradients* grads) const;

  /// As above, but additionally computes the gradient of the loss w.r.t.
  /// the propagation-operator entries (aligned with trace.s.values()).
  /// Used by mask-learning explainers.
  float BackwardToPropagation(const GcnTrace& trace, ClassLabel y,
                              std::vector<float>* ds) const;

  /// Gradient of the raw class-y logit w.r.t. the input features (n x
  /// input_dim). Row L1 norms are the gradient-saliency signal: how much
  /// each node's features drive the prediction. Unlike the loss gradient,
  /// it does not saturate when softmax probabilities reach 0/1.
  Matrix InputLogitGradient(const GcnTrace& trace, ClassLabel y) const;

  GcnGradients ZeroGradients() const;

  /// Flat views of parameters/gradients for the optimizer.
  std::vector<Matrix*> MutableParameters();
  std::vector<const Matrix*> Parameters() const;

  /// OK if `shapes` are the (rows, cols) of the parameters Create(config)
  /// builds, in Parameters() order; IoError otherwise. Loaders check a
  /// payload's tensors with it before Create allocates from the config.
  static Status CheckParameterShapes(
      const GcnConfig& config,
      const std::vector<std::pair<size_t, size_t>>& shapes);
  static std::vector<Matrix*> GradientSlots(GcnGradients* grads);

  static constexpr ClassLabel kNoLabel = -1;

  /// Default-constructed models are empty shells for deferred assignment
  /// (e.g. fixture members); use Create() to obtain a usable model.
  GcnClassifier() = default;

 private:
  // One GCN layer (Eq. 1): *agg = S x, then *out = agg W_i + b_i, with
  // the ReLU applied in the store when `relu`. Forward keeps the
  // pre-activation (relu = false) and Infer does not.
  void Layer(const CsrMatrix& s, const Matrix& x, size_t i, bool relu,
             Matrix* agg, Matrix* out) const;

  // The readout: max-pool over nodes, the FC head, then softmax.
  void Readout(const Matrix& x, std::vector<float>* pooled,
               std::vector<size_t>* argmax, std::vector<float>* logits,
               std::vector<float>* probs) const;

  Matrix BackpropLogitsToInput(const GcnTrace& trace,
                               const std::vector<float>& dlogits) const;

  GcnConfig config_;
  std::vector<Matrix> conv_weights_;  // [L]
  std::vector<Matrix> conv_biases_;   // [L] 1 x hidden
  Matrix fc_weight_;                  // hidden x classes
  Matrix fc_bias_;                    // 1 x classes

  friend class GcnSerializer;
};

}  // namespace gvex
