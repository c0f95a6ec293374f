#include "gvex/tensor/csr.h"

#include <algorithm>
#include <cassert>

namespace gvex {

CsrMatrix CsrMatrix::FromTriplets(size_t n, const std::vector<size_t>& rows,
                                  const std::vector<size_t>& cols,
                                  const std::vector<float>& values) {
  assert(rows.size() == cols.size() && cols.size() == values.size());
  // Count entries per row, then prefix-sum into per-row fill cursors.
  std::vector<size_t> cursor(n + 1, 0);
  for (size_t r : rows) {
    assert(r < n);
    ++cursor[r + 1];
  }
  for (size_t i = 0; i < n; ++i) cursor[i + 1] += cursor[i];

  // Fill: slot holds the input index of each entry, bucketed by row in
  // input order.
  std::vector<size_t> slot(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) slot[cursor[rows[k]]++] = k;

  // Sort each row by column. Ties keep input order, so duplicate (row,
  // col) entries are summed in input order; a hub row costs
  // O(d log d), not O(d^2).
  CsrMatrix m;
  m.n_ = n;
  m.row_ptr_.assign(n + 1, 0);
  m.col_idx_.reserve(rows.size());
  m.values_.reserve(rows.size());
  size_t begin = 0;
  for (size_t r = 0; r < n; ++r) {
    const size_t end = cursor[r];  // advanced to the row's end by the fill
    std::sort(slot.begin() + static_cast<ptrdiff_t>(begin),
              slot.begin() + static_cast<ptrdiff_t>(end),
              [&](size_t a, size_t b) {
                return cols[a] < cols[b] || (cols[a] == cols[b] && a < b);
              });
    const size_t row_start = m.col_idx_.size();
    for (size_t i = begin; i < end; ++i) {
      const size_t k = slot[i];
      if (m.col_idx_.size() > row_start && m.col_idx_.back() == cols[k]) {
        m.values_.back() += values[k];
      } else {
        m.col_idx_.push_back(cols[k]);
        m.values_.push_back(values[k]);
      }
    }
    m.row_ptr_[r + 1] = m.col_idx_.size();
    begin = end;
  }
  return m;
}

std::vector<float> CsrMatrix::MultiplyVector(const std::vector<float>& x) const {
  assert(x.size() == n_);
  std::vector<float> y(n_, 0.0f);
  for (size_t r = 0; r < n_; ++r) {
    float acc = 0.0f;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
  return y;
}

Matrix CsrMatrix::MultiplyDense(const Matrix& x) const {
  Matrix y;
  MultiplyDense(x, &y);
  return y;
}

void CsrMatrix::MultiplyDense(const Matrix& x, Matrix* y) const {
  assert(x.rows() == n_);
  y->Reset(n_, x.cols());
  const size_t d = x.cols();
  for (size_t r = 0; r < n_; ++r) {
    float* yr = y->RowPtr(r);
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const float v = values_[k];
      const float* xr = x.RowPtr(col_idx_[k]);
      for (size_t c = 0; c < d; ++c) yr[c] += v * xr[c];
    }
  }
}

Matrix CsrMatrix::TransposeMultiplyDense(const Matrix& x) const {
  assert(x.rows() == n_);
  Matrix y(n_, x.cols());
  const size_t d = x.cols();
  for (size_t r = 0; r < n_; ++r) {
    const float* xr = x.RowPtr(r);
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const float v = values_[k];
      float* yc = y.RowPtr(col_idx_[k]);
      for (size_t c = 0; c < d; ++c) yc[c] += v * xr[c];
    }
  }
  return y;
}

float CsrMatrix::At(size_t r, size_t c) const {
  assert(r < n_);
  auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[r]);
  auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[r + 1]);
  auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0f;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

Matrix CsrMatrix::ToDense() const {
  Matrix m(n_, n_);
  for (size_t r = 0; r < n_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.At(r, col_idx_[k]) = values_[k];
    }
  }
  return m;
}

}  // namespace gvex
