#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace dswm {
namespace {

TEST(Matrix, IdentityAndAccess) {
  Matrix m = Matrix::Identity(3);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(Matrix, AppendRowGrowsAndKeepsData) {
  Matrix m(0, 3);
  const double r0[] = {1, 2, 3};
  const double r1[] = {4, 5, 6};
  m.AppendRow(r0, 3);
  m.AppendRow(r1, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
}

TEST(Matrix, ReservePreallocatesWithoutChangingShape) {
  Matrix m(0, 3);
  m.Reserve(100);
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 3);
  const double r0[] = {1, 2, 3};
  m.AppendRow(r0, 3);
  EXPECT_EQ(m.rows(), 1);
  // Reserving must not invalidate existing data, and appending up to the
  // reserved capacity keeps row pointers stable (no reallocation).
  const double* row0 = m.Row(0);
  const double r1[] = {4, 5, 6};
  for (int i = 1; i < 100; ++i) m.AppendRow(r1, 3);
  EXPECT_EQ(m.Row(0), row0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(99, 2), 6.0);
  // Shrinking reserve is a no-op.
  m.Reserve(1);
  EXPECT_EQ(m.rows(), 100);
  EXPECT_DOUBLE_EQ(m(42, 0), 4.0);
}

TEST(Matrix, AppendRowSetsColsOnEmptyMatrix) {
  Matrix m(0, 0);
  const double r0[] = {7, 8};
  m.AppendRow(r0, 2);
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(Matrix, FrobeniusNormSquared) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 25.0);
}

TEST(Matrix, AddOuterProduct) {
  Matrix c(2, 2);
  const double v[] = {2.0, -1.0};
  c.AddOuterProduct(v, 1.0);
  EXPECT_DOUBLE_EQ(c(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(c(1, 0), -2.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
}

TEST(Matrix, SparseOuterProductMatchesDense) {
  const int d = 6;
  Matrix dense(d, d);
  Matrix sparse(d, d);
  std::vector<double> v(d, 0.0);
  v[1] = 2.0;
  v[4] = -3.0;
  dense.AddOuterProduct(v.data(), 1.5);
  sparse.AddSparseOuterProduct(v.data(), {1, 4}, 1.5);
  EXPECT_LT(MaxAbsDiff(dense, sparse), 1e-15);
}

TEST(Matrix, GramTransposeEqualsExplicit) {
  Rng rng(5);
  Matrix a(5, 3);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = rng.NextGaussian();
  }
  const Matrix g = GramTranspose(a);
  const Matrix g2 = MatMul(Transpose(a), a);
  EXPECT_LT(MaxAbsDiff(g, g2), 1e-12);
}

TEST(Matrix, GramEqualsExplicit) {
  Rng rng(6);
  Matrix a(4, 6);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) a(i, j) = rng.NextGaussian();
  }
  const Matrix g = Gram(a);
  const Matrix g2 = MatMul(a, Transpose(a));
  EXPECT_LT(MaxAbsDiff(g, g2), 1e-12);
}

TEST(Matrix, MatVecAndMatTVec) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const double x[] = {1.0, -1.0, 2.0};
  double y[2];
  MatVec(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 11.0);

  const double z[] = {1.0, 1.0};
  double w[3];
  MatTVec(a, z, w);
  EXPECT_DOUBLE_EQ(w[0], 5.0);
  EXPECT_DOUBLE_EQ(w[1], 7.0);
  EXPECT_DOUBLE_EQ(w[2], 9.0);
}

TEST(Matrix, SubtractAndAddScaled) {
  Matrix a = Matrix::Identity(2);
  Matrix b = Matrix::Identity(2);
  b.AddScaled(a, 2.0);  // b = 3I
  const Matrix c = Subtract(b, a);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

TEST(VectorKernels, DotNormAxpyScale) {
  double x[] = {1.0, 2.0, 2.0};
  double y[] = {1.0, 0.0, -1.0};
  EXPECT_DOUBLE_EQ(Dot(x, y, 3), -1.0);
  EXPECT_DOUBLE_EQ(NormSquared(x, 3), 9.0);
  Axpy(2.0, x, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  Scale(y, 3, 0.5);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
}

}  // namespace
}  // namespace dswm
