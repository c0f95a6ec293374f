// Dense row-major float matrix: the numerical workhorse behind GNN layers,
// Jacobian computation, and embedding-space diversity.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "gvex/common/rng.h"

namespace gvex {

/// \brief Dense matrix of float, row-major.
///
/// Sized for the graphs in this project (tens to a few thousand rows);
/// kernels are cache-aware loops, not BLAS.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);

  /// Glorot/Xavier-uniform initialization, the PyG default for GCNConv.
  static Matrix GlorotUniform(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  float& operator()(size_t r, size_t c) { return At(r, c); }
  float operator()(size_t r, size_t c) const { return At(r, c); }

  float* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Span view of a row — the no-copy alternative to SetRow for hot
  /// callers.
  std::span<float> Row(size_t r) { return {RowPtr(r), cols_}; }
  std::span<const float> Row(size_t r) const { return {RowPtr(r), cols_}; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v);
  void SetRow(size_t r, const std::vector<float>& values);

  /// Reshape to rows x cols, all zeros, reusing the allocation when it is
  /// large enough (scratch buffers reused across calls on hot paths).
  void Reset(size_t rows, size_t cols);

  /// Sum of |a_ij| over a row (L1 norm of the row).
  float RowL1Norm(size_t r) const;

  /// Frobenius norm of the whole matrix.
  float FrobeniusNorm() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace gvex
