// Unit tests for dense/sparse kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "gvex/common/rng.h"
#include "gvex/tensor/csr.h"
#include "gvex/tensor/matrix.h"
#include "gvex/tensor/ops.h"

namespace gvex {
namespace {

Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.At(1, 2), 1.5f);
  m.At(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), -2.0f);
  EXPECT_EQ(m.ShapeString(), "[2 x 3]");
}

TEST(MatrixTest, IdentityAndNorms) {
  Matrix id = Matrix::Identity(3);
  EXPECT_FLOAT_EQ(id.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(id.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(id.FrobeniusNorm(), std::sqrt(3.0f));
  Matrix m(1, 3);
  m.SetRow(0, {1.0f, -2.0f, 3.0f});
  EXPECT_FLOAT_EQ(m.RowL1Norm(0), 6.0f);
}

TEST(MatrixTest, GlorotBounds) {
  Rng rng(5);
  Matrix m = Matrix::GlorotUniform(20, 30, &rng);
  float limit = std::sqrt(6.0f / 50.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit);
  }
}

TEST(OpsTest, MatMulAgainstHand) {
  Matrix a(2, 3);
  a.SetRow(0, {1, 2, 3});
  a.SetRow(1, {4, 5, 6});
  Matrix b(3, 2);
  b.SetRow(0, {7, 8});
  b.SetRow(1, {9, 10});
  b.SetRow(2, {11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsTest, TransposedMatMulsAgree) {
  Matrix a = RandomMatrix(4, 5, 1);
  Matrix b = RandomMatrix(4, 3, 2);
  // A^T B via MatMulTransA should match explicit transpose.
  Matrix at(5, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 5; ++j) at.At(j, i) = a.At(i, j);
  }
  Matrix expected = MatMul(at, b);
  Matrix got = MatMulTransA(a, b);
  ASSERT_TRUE(expected.SameShape(got));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4f);
  }

  Matrix c = RandomMatrix(6, 5, 3);
  Matrix ct(5, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 5; ++j) ct.At(j, i) = c.At(i, j);
  }
  Matrix lhs = RandomMatrix(2, 5, 4);
  Matrix expected2 = MatMul(lhs, ct);
  Matrix got2 = MatMulTransB(lhs, c);  // (2x5)*(6x5)^T
  ASSERT_TRUE(expected2.SameShape(got2));
  for (size_t i = 0; i < got2.size(); ++i) {
    EXPECT_NEAR(got2.data()[i], expected2.data()[i], 1e-4f);
  }
}

// A matrix with Gaussian entries and a sprinkling of exact zeros, to
// exercise the av == 0.0f skip shared by the optimized and reference
// kernels.
Matrix RandomSparseMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        rng.NextBool(0.25) ? 0.0f : static_cast<float>(rng.NextGaussian());
  }
  return m;
}

void ExpectBitIdentical(const Matrix& got, const Matrix& want) {
  ASSERT_TRUE(got.SameShape(want));
  for (size_t i = 0; i < got.size(); ++i) {
    // Exact equality on purpose: the blocked/unrolled/parallel kernels
    // preserve the reference accumulation order, so results must be
    // bit-identical, not merely close.
    ASSERT_EQ(got.data()[i], want.data()[i]) << "flat index " << i;
  }
}

TEST(OpsTest, BlockedMatMulBitIdenticalToReference) {
  // Odd shapes exercise the unroll tails; 70 and 130 straddle the k-block
  // boundary (kBlockK = 64) without dividing evenly.
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                         {3, 70, 5},
                         {17, 130, 9},
                         {33, 64, 31}}) {
    Matrix a = RandomSparseMatrix(m, k, 100 + m);
    Matrix b = RandomSparseMatrix(k, n, 200 + n);
    ExpectBitIdentical(MatMul(a, b), MatMulReference(a, b));
  }
}

TEST(OpsTest, BlockedTransKernelsBitIdenticalToReference) {
  Matrix a = RandomSparseMatrix(70, 17, 7);
  Matrix b = RandomSparseMatrix(70, 13, 8);
  ExpectBitIdentical(MatMulTransA(a, b), MatMulTransAReference(a, b));

  Matrix lhs = RandomSparseMatrix(19, 33, 9);
  Matrix rhs = RandomSparseMatrix(23, 33, 10);
  ExpectBitIdentical(MatMulTransB(lhs, rhs), MatMulTransBReference(lhs, rhs));
}

TEST(OpsTest, ParallelPathBitIdenticalToReference) {
  // Above the ~8M-flop threshold with >= 64 output rows, so the blocked
  // kernels take the ThreadPool row-partitioned path. Row partitions write
  // disjoint rows, so the result must still be bit-identical.
  Matrix a = RandomSparseMatrix(96, 512, 11);
  Matrix b = RandomSparseMatrix(512, 256, 12);
  ExpectBitIdentical(MatMul(a, b), MatMulReference(a, b));

  Matrix ta = RandomSparseMatrix(512, 96, 13);
  Matrix tb = RandomSparseMatrix(512, 256, 14);
  ExpectBitIdentical(MatMulTransA(ta, tb), MatMulTransAReference(ta, tb));

  Matrix ba = RandomSparseMatrix(96, 512, 15);
  Matrix bb = RandomSparseMatrix(256, 512, 16);
  ExpectBitIdentical(MatMulTransB(ba, bb), MatMulTransBReference(ba, bb));
}

// Entries drawn to hit every special case of the kernels: Gaussian
// values, exact +0.0 and -0.0 (skipped by the av == 0 test), +-inf and
// NaN (0 * inf is NaN, so a wrong skip shows), and subnormals.
Matrix SpecialValuesMatrix(size_t r, size_t c, uint64_t seed) {
  // Non-finite entries are rare enough that most outputs stay finite at
  // k = 70, so the accumulation order is checked as well.
  const float kNonFinite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
  Rng rng(seed);
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    const double u = rng.NextDouble();
    float v = static_cast<float>(rng.NextGaussian());
    if (u < 0.1) {
      v = 0.0f;
    } else if (u < 0.2) {
      v = -0.0f;
    } else if (u < 0.24) {
      v = u < 0.22 ? std::numeric_limits<float>::denorm_min() : -3.5e-39f;
    } else if (u < 0.25) {
      v = kNonFinite[rng.NextBounded(3)];
    }
    m.data()[i] = v;
  }
  return m;
}

// Bitwise equality, which unlike == tells -0.0 from +0.0. The one
// exception: a NaN must meet a NaN, but their sign and payload may
// differ. When both operands of an SSE add are NaN the result is the
// first operand's, and GCC orders the operands of a commutative add as it
// likes, differently in each kernel and in each build; IEEE 754 leaves
// the payload of a NaN result open too.
void ExpectSameBits(const Matrix& got, const Matrix& want) {
  ASSERT_TRUE(got.SameShape(want))
      << got.ShapeString() << " vs " << want.ShapeString();
  for (size_t i = 0; i < got.size(); ++i) {
    const float g = got.data()[i], w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    ASSERT_EQ(std::bit_cast<uint32_t>(g), std::bit_cast<uint32_t>(w))
        << "flat index " << i << ": " << g << " vs " << w;
  }
}

// Shapes that hit every column tail of the 16-wide kernel block (and its
// 4-wide and scalar tails) and k from 1 to past 64.
constexpr size_t kTailCols[] = {1, 3, 4, 15, 16, 17, 33, 48};
constexpr size_t kDepths[] = {1, 3, 32, 70};

TEST(OpsTest, KernelTailsBitIdenticalToReferenceOnSpecialValues) {
  uint64_t seed = 500;
  for (size_t n : kTailCols) {
    for (size_t k : kDepths) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " n=" << n);
      const size_t m = 5;
      Matrix a = SpecialValuesMatrix(m, k, ++seed);
      Matrix b = SpecialValuesMatrix(k, n, ++seed);
      ExpectSameBits(MatMul(a, b), MatMulReference(a, b));

      Matrix ta = SpecialValuesMatrix(k, m, ++seed);
      ExpectSameBits(MatMulTransA(ta, b), MatMulTransAReference(ta, b));

      Matrix tb = SpecialValuesMatrix(n, k, ++seed);
      ExpectSameBits(MatMulTransB(a, tb), MatMulTransBReference(a, tb));
    }
  }
}

TEST(OpsTest, FusedBiasReluStoreBitIdenticalToReferenceChain) {
  uint64_t seed = 900;
  for (size_t n : kTailCols) {
    for (size_t k : kDepths) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " n=" << n);
      Matrix a = SpecialValuesMatrix(7, k, ++seed);
      Matrix b = SpecialValuesMatrix(k, n, ++seed);
      Matrix bias = SpecialValuesMatrix(1, n, ++seed);
      Matrix want = MatMulReference(a, b);
      AddRowBias(&want, bias.Row(0));
      Matrix c(2, 2, 7.0f);  // stale contents and shape must not leak
      MatMulBias(a, b, bias.Row(0), /*relu=*/false, &c);
      ExpectSameBits(c, want);
      MatMulBias(a, b, bias.Row(0), /*relu=*/true, &c);
      ExpectSameBits(c, Relu(want));
      MatMulBias(a, b, {}, /*relu=*/true, &c);
      ExpectSameBits(c, Relu(MatMulReference(a, b)));
    }
  }
}

TEST(OpsTest, ParallelPathBitIdenticalToReferenceOnSpecialValues) {
  // Above the parallel flop threshold with >= 64 output rows.
  Matrix a = SpecialValuesMatrix(96, 512, 31);
  Matrix b = SpecialValuesMatrix(512, 257, 32);
  ExpectSameBits(MatMul(a, b), MatMulReference(a, b));
  Matrix bias = SpecialValuesMatrix(1, 257, 33);
  Matrix want = MatMulReference(a, b);
  AddRowBias(&want, bias.Row(0));
  Matrix c;
  MatMulBias(a, b, bias.Row(0), /*relu=*/true, &c);
  ExpectSameBits(c, Relu(want));

  Matrix ta = SpecialValuesMatrix(512, 96, 34);
  ExpectSameBits(MatMulTransA(ta, b), MatMulTransAReference(ta, b));
  Matrix tb = SpecialValuesMatrix(257, 512, 35);
  ExpectSameBits(MatMulTransB(a, tb), MatMulTransBReference(a, tb));
}

TEST(OpsTest, ReluForwardBackward) {
  Matrix x(1, 4);
  x.SetRow(0, {-1.0f, 0.0f, 2.0f, -3.0f});
  Matrix y = Relu(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 2), 2.0f);
  Matrix dy(1, 4, 1.0f);
  Matrix dx = ReluBackward(x, dy);
  EXPECT_FLOAT_EQ(dx.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.At(0, 1), 0.0f);  // gate closed at exactly 0
  EXPECT_FLOAT_EQ(dx.At(0, 2), 1.0f);
}

TEST(OpsTest, RowSoftmaxSumsToOne) {
  Matrix logits = RandomMatrix(5, 7, 9);
  Matrix p = RowSoftmax(logits);
  for (size_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_GT(p.At(r, c), 0.0f);
      sum += p.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, ColumnMaxTracksArgmax) {
  Matrix x(3, 2);
  x.SetRow(0, {1.0f, 9.0f});
  x.SetRow(1, {5.0f, 2.0f});
  x.SetRow(2, {3.0f, 4.0f});
  std::vector<float> mx;
  std::vector<size_t> arg;
  ColumnMax(x, &mx, &arg);
  EXPECT_FLOAT_EQ(mx[0], 5.0f);
  EXPECT_FLOAT_EQ(mx[1], 9.0f);
  EXPECT_EQ(arg[0], 1u);
  EXPECT_EQ(arg[1], 0u);
}

TEST(OpsTest, ColumnMeanAndDistance) {
  Matrix x(2, 2);
  x.SetRow(0, {0.0f, 0.0f});
  x.SetRow(1, {2.0f, 4.0f});
  auto mean = ColumnMean(x);
  EXPECT_FLOAT_EQ(mean[0], 1.0f);
  EXPECT_FLOAT_EQ(mean[1], 2.0f);
  // ||(2,4)|| / sqrt(2) = sqrt(20/2) = sqrt(10)
  EXPECT_NEAR(NormalizedRowDistance(x, 0, 1), std::sqrt(10.0f), 1e-5f);
  EXPECT_FLOAT_EQ(NormalizedRowDistance(x, 0, 0), 0.0f);
}

TEST(OpsTest, MatrixPower) {
  Matrix s(2, 2);
  s.SetRow(0, {0.0f, 1.0f});
  s.SetRow(1, {1.0f, 0.0f});
  Matrix p0 = MatrixPower(s, 0);
  EXPECT_FLOAT_EQ(p0.At(0, 0), 1.0f);
  Matrix p2 = MatrixPower(s, 2);
  EXPECT_FLOAT_EQ(p2.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(p2.At(0, 1), 0.0f);
}

TEST(CsrTest, FromTripletsSortsAndMergesDuplicates) {
  // Entry (0,1) appears twice and must be summed.
  CsrMatrix m = CsrMatrix::FromTriplets(3, {0, 0, 1, 0}, {2, 1, 0, 1},
                                        {3.0f, 1.0f, 5.0f, 2.0f});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(m.At(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(m.At(2, 2), 0.0f);
  // Columns sorted within the row.
  EXPECT_LT(m.col_idx()[0], m.col_idx()[1]);
}

TEST(CsrTest, MultiplyMatchesDense) {
  Rng rng(21);
  const size_t n = 12;
  std::vector<size_t> rows, cols;
  std::vector<float> vals;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng.NextBool(0.2)) {
        rows.push_back(i);
        cols.push_back(j);
        vals.push_back(static_cast<float>(rng.NextGaussian()));
      }
    }
  }
  CsrMatrix s = CsrMatrix::FromTriplets(n, rows, cols, vals);
  Matrix dense = s.ToDense();
  Matrix x = RandomMatrix(n, 4, 22);

  Matrix got = s.MultiplyDense(x);
  Matrix expected = MatMul(dense, x);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4f);
  }

  Matrix gotT = s.TransposeMultiplyDense(x);
  Matrix expectedT = MatMulTransA(dense, x);
  for (size_t i = 0; i < gotT.size(); ++i) {
    EXPECT_NEAR(gotT.data()[i], expectedT.data()[i], 1e-4f);
  }

  std::vector<float> xv(n);
  for (size_t i = 0; i < n; ++i) xv[i] = static_cast<float>(i) - 5.0f;
  auto yv = s.MultiplyVector(xv);
  for (size_t i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (size_t j = 0; j < n; ++j) acc += dense.At(i, j) * xv[j];
    EXPECT_NEAR(yv[i], acc, 1e-4f);
  }
}

}  // namespace
}  // namespace gvex
