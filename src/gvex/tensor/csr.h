// Compressed sparse row matrix for graph propagation operators.
//
// The GCN forward pass multiplies the normalized adjacency
// S = D^-1/2 (A + I) D^-1/2 by dense feature matrices; S is stored here in
// CSR so that large sparse graphs (REDDIT / MALNET / PRODUCTS scale) stay
// linear in the edge count.
#pragma once

#include <cstddef>
#include <vector>

#include "gvex/tensor/matrix.h"

namespace gvex {

/// \brief Square CSR matrix with float values.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from COO triplets: count per row, fill, then sort each row by
  /// column. Duplicate (row, col) entries are summed in input order.
  static CsrMatrix FromTriplets(size_t n,
                                const std::vector<size_t>& rows,
                                const std::vector<size_t>& cols,
                                const std::vector<float>& values);

  size_t n() const { return n_; }
  size_t nnz() const { return col_idx_.size(); }

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }

  /// y = this * x for a dense vector x.
  std::vector<float> MultiplyVector(const std::vector<float>& x) const;

  /// Y = this * X for a dense matrix X (n x d) -> (n x d).
  Matrix MultiplyDense(const Matrix& x) const;
  /// As above, into *y, reusing its allocation (the inference forward's
  /// scratch).
  void MultiplyDense(const Matrix& x, Matrix* y) const;

  /// Y^T = X^T * this, i.e. Y = this^T * X, without materializing the
  /// transpose (needed by GCN backprop; S is symmetric for undirected
  /// graphs but we do not rely on that).
  Matrix TransposeMultiplyDense(const Matrix& x) const;

  /// Entry lookup (binary search within the row). Returns 0 when absent.
  float At(size_t r, size_t c) const;

  /// Densify (tests and small-graph Jacobians only).
  Matrix ToDense() const;

 private:
  size_t n_ = 0;
  std::vector<size_t> row_ptr_;   // size n_ + 1
  std::vector<size_t> col_idx_;   // size nnz, sorted within each row
  std::vector<float> values_;     // size nnz
};

}  // namespace gvex
