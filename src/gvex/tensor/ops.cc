#include "gvex/tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "gvex/common/thread_pool.h"

namespace gvex {
namespace {

// Rows handed to one pool task in the parallel path.
constexpr size_t kRowBlock = 32;
// Below ~8M flops the fork/join overhead beats the parallel win.
constexpr size_t kParallelFlops = size_t{1} << 23;

// Runs `body(i0, i1)` over [0, m) — serially when the product is small,
// otherwise as kRowBlock row slabs on the shared pool. Row partitions
// write disjoint C rows, so any split is bit-identical to the serial run.
template <typename Body>
void ForRowBlocks(size_t m, size_t flops, const Body& body) {
  if (flops < kParallelFlops || m < 2 * kRowBlock) {
    body(0, m);
    return;
  }
  const size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  ThreadPool::Shared().ParallelFor(blocks, [&](size_t bi) {
    body(bi * kRowBlock, std::min(m, (bi + 1) * kRowBlock));
  });
}

// Four floats in one SSE register (GCC vector extension). Lane-wise
// `+` and `*` round exactly like the scalar operators, and the default
// x86-64 target has no FMA instruction to contract `c += a * b` into, so
// a vector lane computes the same bits as the scalar loop it replaces.
using Vec4 = float __attribute__((vector_size(16)));

template <typename V>
V LoadLanes(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
void StoreLanes(float* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

// One GEMM, C = ReLU?(A · B + bias): A(i, p) sits at
// a[i * a_row + p * a_step] (row i of A, or column i of A for A^T), and
// B is k x n with row stride ldb.
struct Gemm {
  const float* a;
  size_t a_row, a_step, k;
  const float* b;
  size_t ldb, n;
  const float* bias;  // n floats, or null
  bool relu;
  float* c;  // row stride n
};

// The kernel body: C columns [j, j + width) of rows [i0, i1), each row's
// columns in kBlocks registers of type V (16 columns as four Vec4, or a
// Vec4 or a float for the tails) for the whole k loop. Rows run inside
// a column block, so the block's k x width panel of B stays in L1 from
// row to row. Each C(i, j) sums A(i, p) * B(p, j) over ascending p
// starting from 0.0f — the reference order — and the bias add and ReLU
// happen in the store, as AddRowBias and Relu would do them afterwards.
// kSkipZeros drops the terms whose A value is 0, as MatMulReference
// does; the skip is load-bearing, not a speed hack: 0 * inf and 0 * NaN
// are NaN, so dropping it would change outputs on non-finite inputs.
template <bool kSkipZeros, typename V, size_t kBlocks>
size_t GemmColumns(const Gemm& g, size_t i0, size_t i1, size_t j) {
  constexpr size_t kLanes = sizeof(V) / sizeof(float);
  constexpr size_t kWidth = kLanes * kBlocks;
  for (; j + kWidth <= g.n; j += kWidth) {
    for (size_t i = i0; i < i1; ++i) {
      const float* a = g.a + i * g.a_row;
      const float* b = g.b + j;
      V acc[kBlocks] = {};
      for (size_t p = 0; p < g.k; ++p, b += g.ldb) {
        const float av = a[p * g.a_step];
        if (kSkipZeros && av == 0.0f) continue;
#pragma GCC unroll 4
        for (size_t r = 0; r < kBlocks; ++r) {
          acc[r] += av * LoadLanes<V>(b + r * kLanes);
        }
      }
      float* c = g.c + i * g.n + j;
#pragma GCC unroll 4
      for (size_t r = 0; r < kBlocks; ++r) {
        V out = acc[r];
        if (g.bias != nullptr) out += LoadLanes<V>(g.bias + j + r * kLanes);
        if (g.relu) out = out < V{} ? V{} : out;
        StoreLanes(c + r * kLanes, out);
      }
    }
  }
  return j;
}

template <bool kSkipZeros>
void GemmRows(const Gemm& g, size_t i0, size_t i1) {
  size_t j = GemmColumns<kSkipZeros, Vec4, 4>(g, i0, i1, 0);
  j = GemmColumns<kSkipZeros, Vec4, 1>(g, i0, i1, j);
  GemmColumns<kSkipZeros, float, 1>(g, i0, i1, j);
}

template <bool kSkipZeros>
void RunGemm(const Gemm& g, size_t m) {
  ForRowBlocks(m, m * g.k * g.n,
               [&](size_t i0, size_t i1) { GemmRows<kSkipZeros>(g, i0, i1); });
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulBias(a, b, {}, /*relu=*/false, &c);
  return c;
}

void MatMulBias(const Matrix& a, const Matrix& b, std::span<const float> bias,
                bool relu, Matrix* c) {
  assert(a.cols() == b.rows());
  assert(bias.empty() || bias.size() == b.cols());
  c->Reset(a.rows(), b.cols());
  RunGemm<true>({a.data(), a.cols(), 1, a.cols(), b.data(), b.cols(),
                 b.cols(), bias.empty() ? nullptr : bias.data(), relu,
                 c->data()},
                a.rows());
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  // Row i of A^T is column i of A: stride a.cols() down the column.
  RunGemm<true>({a.data(), 1, a.cols(), a.rows(), b.data(), b.cols(),
                 b.cols(), nullptr, false, c.data()},
                a.cols());
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  const size_t k = a.cols(), n = b.rows();
  Matrix bt(k, n);  // B^T, packed once so the kernel reads B^T's rows
  for (size_t j = 0; j < n; ++j) {
    for (size_t p = 0; p < k; ++p) bt.At(p, j) = b.At(j, p);
  }
  Matrix c(a.rows(), n);
  // The reference dot product has no zero skip.
  RunGemm<false>({a.data(), k, 1, k, bt.data(), n, n, nullptr, false,
                  c.data()},
                 a.rows());
  return c;
}

Matrix MatMulReference(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const float* ar = a.RowPtr(i);
    float* cr = c.RowPtr(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = ar[p];
      if (av == 0.0f) continue;
      const float* br = b.RowPtr(p);
      for (size_t j = 0; j < n; ++j) cr[j] += av * br[j];
    }
  }
  return c;
}

Matrix MatMulTransAReference(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (size_t p = 0; p < k; ++p) {
    const float* ar = a.RowPtr(p);
    const float* br = b.RowPtr(p);
    for (size_t i = 0; i < m; ++i) {
      const float av = ar[i];
      if (av == 0.0f) continue;
      float* cr = c.RowPtr(i);
      for (size_t j = 0; j < n; ++j) cr[j] += av * br[j];
    }
  }
  return c;
}

Matrix MatMulTransBReference(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    const float* ar = a.RowPtr(i);
    float* cr = c.RowPtr(i);
    for (size_t j = 0; j < n; ++j) {
      const float* br = b.RowPtr(j);
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += ar[p] * br[p];
      cr[j] = acc;
    }
  }
  return c;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  assert(a.SameShape(b));
  Matrix c = a;
  AddInPlace(&c, b);
  return c;
}

void AddInPlace(Matrix* a, const Matrix& b, float scale) {
  assert(a->SameShape(b));
  float* pa = a->data();
  const float* pb = b.data();
  for (size_t i = 0; i < a->size(); ++i) pa[i] += scale * pb[i];
}

void ScaleInPlace(Matrix* a, float s) {
  float* p = a->data();
  for (size_t i = 0; i < a->size(); ++i) p[i] *= s;
}

Matrix Relu(const Matrix& x) {
  Matrix y = x;
  float* p = y.data();
  for (size_t i = 0; i < y.size(); ++i) {
    if (p[i] < 0.0f) p[i] = 0.0f;
  }
  return y;
}

Matrix ReluBackward(const Matrix& x, const Matrix& dy) {
  assert(x.SameShape(dy));
  Matrix dx = dy;
  const float* px = x.data();
  float* pd = dx.data();
  for (size_t i = 0; i < dx.size(); ++i) {
    if (px[i] <= 0.0f) pd[i] = 0.0f;
  }
  return dx;
}

Matrix RowSoftmax(const Matrix& logits) {
  Matrix out = logits;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* p = out.RowPtr(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < out.cols(); ++c) mx = std::max(mx, p[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < out.cols(); ++c) {
      p[c] = std::exp(p[c] - mx);
      sum += p[c];
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < out.cols(); ++c) p[c] *= inv;
  }
  return out;
}

void AddRowBias(Matrix* x, std::span<const float> bias) {
  assert(bias.size() == x->cols());
  for (size_t r = 0; r < x->rows(); ++r) {
    float* p = x->RowPtr(r);
    for (size_t c = 0; c < x->cols(); ++c) p[c] += bias[c];
  }
}

void ColumnMax(const Matrix& x, std::vector<float>* max_values,
               std::vector<size_t>* argmax_rows) {
  assert(x.rows() >= 1);
  max_values->assign(x.cols(), -std::numeric_limits<float>::infinity());
  argmax_rows->assign(x.cols(), 0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* p = x.RowPtr(r);
    for (size_t c = 0; c < x.cols(); ++c) {
      if (p[c] > (*max_values)[c]) {
        (*max_values)[c] = p[c];
        (*argmax_rows)[c] = r;
      }
    }
  }
}

std::vector<float> ColumnMean(const Matrix& x) {
  std::vector<float> mean(x.cols(), 0.0f);
  if (x.rows() == 0) return mean;
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* p = x.RowPtr(r);
    for (size_t c = 0; c < x.cols(); ++c) mean[c] += p[c];
  }
  const float inv = 1.0f / static_cast<float>(x.rows());
  for (auto& v : mean) v *= inv;
  return mean;
}

float NormalizedRowDistance(const Matrix& x, size_t i, size_t j) {
  const float* a = x.RowPtr(i);
  const float* b = x.RowPtr(j);
  double acc = 0.0;
  for (size_t c = 0; c < x.cols(); ++c) {
    double d = static_cast<double>(a[c]) - b[c];
    acc += d * d;
  }
  return static_cast<float>(
      std::sqrt(acc / static_cast<double>(std::max<size_t>(1, x.cols()))));
}

Matrix MatrixPower(const Matrix& s, unsigned k) {
  assert(s.rows() == s.cols());
  Matrix result = Matrix::Identity(s.rows());
  for (unsigned i = 0; i < k; ++i) result = MatMul(result, s);
  return result;
}

}  // namespace gvex
