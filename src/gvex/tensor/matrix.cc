#include "gvex/tensor/matrix.h"

#include <cassert>
#include <cmath>

#include "gvex/common/string_util.h"

namespace gvex {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0f;
  return m;
}

Matrix Matrix::GlorotUniform(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (auto& v : m.data_) {
    v = (2.0f * rng->NextFloat() - 1.0f) * limit;
  }
  return m;
}

void Matrix::Fill(float v) {
  for (auto& x : data_) x = v;
}

void Matrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::SetRow(size_t r, const std::vector<float>& values) {
  assert(values.size() == cols_);
  std::copy(values.begin(), values.end(), RowPtr(r));
}

float Matrix::RowL1Norm(size_t r) const {
  float sum = 0.0f;
  const float* p = RowPtr(r);
  for (size_t c = 0; c < cols_; ++c) sum += std::fabs(p[c]);
  return sum;
}

float Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(sum));
}

std::string Matrix::ShapeString() const {
  return StrFormat("[%zu x %zu]", rows_, cols_);
}

}  // namespace gvex
