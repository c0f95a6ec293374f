// Dense kernels shared by the GNN layers, the Jacobian engine, and the
// embedding-distance computations.
#pragma once

#include <span>
#include <vector>

#include "gvex/tensor/matrix.h"

namespace gvex {

/// C = A * B. Shapes must agree ((m x k) * (k x n) -> (m x n)).
///
/// One register-blocked kernel serves MatMul, MatMulTransA and
/// MatMulTransB: it holds 16 columns of a C row in four 4-wide vector
/// registers for the whole k loop, and row-partitions over the shared
/// ThreadPool above a flop threshold. Each C(i, j) still accumulates over
/// ascending p exactly like the reference kernel, so results are
/// bit-identical to MatMulReference (pinned by tensor_test's equivalence
/// suite; see docs/PERFORMANCE.md).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// *c = A * B, then c[r] += bias for every row r (skipped when `bias` is
/// empty), then ReLU when `relu` — the GCN layer's dense step, with the
/// bias add and the ReLU done in the kernel's store. `c` is reshaped to
/// m x n, reusing its allocation. Bit-identical to MatMulReference, then
/// AddRowBias, then Relu.
void MatMulBias(const Matrix& a, const Matrix& b, std::span<const float> bias,
                bool relu, Matrix* c);

/// C = A^T * B ((k x m)^T * (k x n) -> (m x n)), without materializing A^T.
/// Bit-identical to MatMulTransAReference (see MatMul).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T ((m x k) * (n x k)^T -> (m x n)); B^T is packed once per
/// call. Bit-identical to MatMulTransBReference (see MatMul).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Reference (naive) kernels: the pre-optimization implementations, kept
/// as the correctness oracle for the optimized paths above. Used by the
/// equivalence tests and the micro-kernel benches; not for hot paths.
Matrix MatMulReference(const Matrix& a, const Matrix& b);
Matrix MatMulTransAReference(const Matrix& a, const Matrix& b);
Matrix MatMulTransBReference(const Matrix& a, const Matrix& b);

/// C = A + B (element-wise).
Matrix Add(const Matrix& a, const Matrix& b);

/// a += scale * b (element-wise, in place).
void AddInPlace(Matrix* a, const Matrix& b, float scale = 1.0f);

/// a *= s (element-wise, in place).
void ScaleInPlace(Matrix* a, float s);

/// Element-wise ReLU. Out-of-place.
Matrix Relu(const Matrix& x);

/// Gradient gate of ReLU: dx = dy ⊙ [x > 0].
Matrix ReluBackward(const Matrix& x, const Matrix& dy);

/// Row-wise softmax (numerically stabilized).
Matrix RowSoftmax(const Matrix& logits);

/// Add a row-broadcast bias: x[r] += bias for every row r. The reference
/// for MatMulBias's fused bias store.
void AddRowBias(Matrix* x, std::span<const float> bias);

/// Column-wise max over rows; also reports the argmax row per column
/// (needed by max-pool readout backprop). `x` must have >= 1 row.
void ColumnMax(const Matrix& x, std::vector<float>* max_values,
               std::vector<size_t>* argmax_rows);

/// Column-wise mean over rows.
std::vector<float> ColumnMean(const Matrix& x);

/// Normalized Euclidean distance between two rows of `x`:
/// ||xi - xj||_2 / sqrt(d). This is the embedding distance used by the
/// neighborhood-diversity measure (Eq. 6).
float NormalizedRowDistance(const Matrix& x, size_t i, size_t j);

/// Dense n-step propagation power: S^k restricted to dense (tests and
/// small graphs). `s` must be square.
Matrix MatrixPower(const Matrix& s, unsigned k);

}  // namespace gvex
