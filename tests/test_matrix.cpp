#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include "linalg_reference.h"
#include "sim/rng.h"

namespace {

using rlb::linalg::Matrix;
using rlb::linalg::Vector;

Matrix make(std::size_t r, std::size_t c, std::initializer_list<double> v) {
  Matrix m(r, c);
  auto it = v.begin();
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = *it++;
  return m;
}

TEST(Matrix, IdentityAndFill) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix f(2, 2, 7.0);
  EXPECT_DOUBLE_EQ(f(1, 1), 7.0);
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a = make(2, 2, {1, 2, 3, 4});
  const Matrix b = make(2, 2, {5, 6, 7, 8});
  const Matrix s = a + b;
  EXPECT_DOUBLE_EQ(s(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 12.0);
  const Matrix d = b - a;
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  const Matrix t = a * 2.0;
  EXPECT_DOUBLE_EQ(t(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, Multiply) {
  const Matrix a = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = make(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MultiplyByIdentity) {
  const Matrix a = make(2, 2, {1.5, -2, 0.25, 4});
  const Matrix r = a * Matrix::identity(2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(r(i, j), a(i, j));
}

TEST(Matrix, Transpose) {
  const Matrix a = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Norms) {
  const Matrix a = make(2, 2, {1, -5, 2, 3});
  EXPECT_DOUBLE_EQ(a.norm_inf(), 6.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 5.0);
}

TEST(Matrix, RowSums) {
  const Matrix a = make(2, 2, {1, 2, -3, 3});
  const Vector rs = a.row_sums();
  EXPECT_DOUBLE_EQ(rs[0], 3.0);
  EXPECT_DOUBLE_EQ(rs[1], 0.0);
}

TEST(VectorOps, VecMatAndMatVec) {
  const Matrix a = make(2, 2, {1, 2, 3, 4});
  const Vector x{1.0, 1.0};
  const Vector row = rlb::linalg::vec_mat(x, a);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[1], 6.0);
  const Vector col = rlb::linalg::mat_vec(a, x);
  EXPECT_DOUBLE_EQ(col[0], 3.0);
  EXPECT_DOUBLE_EQ(col[1], 7.0);
}

TEST(VectorOps, DotSumNorm) {
  const Vector a{1, 2, 3};
  const Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(rlb::linalg::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(rlb::linalg::sum(a), 6.0);
  EXPECT_DOUBLE_EQ(rlb::linalg::norm_inf(b), 6.0);
}

TEST(VectorOps, AxpyAndScaled) {
  Vector y{1, 1};
  const Vector x{2, 3};
  rlb::linalg::axpy(y, 2.0, x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector s = rlb::linalg::scaled({1, 2}, 3.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
}

// -- Row-update kernel vs the scalar ikj loop ---------------------------
//
// operator* must equal reference::matmul entry for entry (==). Sizes 1, 3,
// 5, 7 and 37 cover every tail of the four-row unroll; 364 is the block
// size of the (N, T) = (12, 3) bound models, and 13% is the density of
// their B1/B2 blocks.

namespace ref = rlb::linalg::reference;

constexpr std::size_t kKernelSizes[] = {1, 3, 5, 7, 37, 364};

TEST(MatrixKernel, DenseProductEqualsScalarLoop) {
  rlb::sim::Rng rng(101);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    const Matrix a = ref::random_matrix(n, n, 1.0, rng);
    const Matrix b = ref::random_matrix(n, n, 1.0, rng);
    ref::expect_identical(a * b, ref::matmul(a, b));
  }
}

TEST(MatrixKernel, SparseProductEqualsScalarLoop) {
  rlb::sim::Rng rng(102);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    const Matrix a = ref::random_matrix(n, n, 0.13, rng);
    const Matrix b = ref::random_matrix(n, n, 0.13, rng);
    ref::expect_identical(a * b, ref::matmul(a, b));
    // Sparse times dense and dense times sparse.
    const Matrix d = ref::random_matrix(n, n, 1.0, rng);
    ref::expect_identical(a * d, ref::matmul(a, d));
    ref::expect_identical(d * a, ref::matmul(d, a));
  }
}

TEST(MatrixKernel, RectangularProductsEqualScalarLoop) {
  rlb::sim::Rng rng(103);
  // {rows of a, cols of a = rows of b, cols of b}
  const std::size_t shapes[][3] = {
      {1, 1, 5},
      {3, 5, 1},
      {5, 7, 3},
      {7, 3, 37},
      {37, 5, 1},
      {1, 37, 364},
      {364, 37, 1},
      {2, 364, 9},
      {9, 6, 364},
  };
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "x" << s[1] << " * " << s[1]
                                    << "x" << s[2]);
    for (const double density : {1.0, 0.13}) {
      const Matrix a = ref::random_matrix(s[0], s[1], density, rng);
      const Matrix b = ref::random_matrix(s[1], s[2], density, rng);
      ref::expect_identical(a * b, ref::matmul(a, b));
    }
  }
}

TEST(MatrixKernel, ZeroRowsAndColumnsEqualScalarLoop) {
  rlb::sim::Rng rng(104);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    Matrix a = ref::random_matrix(n, n, 1.0, rng);
    Matrix b = ref::random_matrix(n, n, 1.0, rng);
    // Whole zero rows of a (empty kernel calls), zero columns of a (b rows
    // never read), zero rows and columns of b.
    for (std::size_t i = 0; i < n; i += 3)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = 0.0;
    for (std::size_t j = 1; j < n; j += 4)
      for (std::size_t i = 0; i < n; ++i) a(i, j) = 0.0;
    for (std::size_t i = 0; i < n; i += 2)
      for (std::size_t j = 0; j < n; ++j) b(i, j) = 0.0;
    for (std::size_t j = 0; j < n; j += 5)
      for (std::size_t i = 0; i < n; ++i) b(i, j) = 0.0;
    ref::expect_identical(a * b, ref::matmul(a, b));
    ref::expect_identical(b * a, ref::matmul(b, a));
    const Matrix zero(n, n, 0.0);
    ref::expect_identical(zero * b, zero);
    ref::expect_identical(a * zero, zero);
  }
}

TEST(MatrixKernel, EmptyShapes) {
  const Matrix c = Matrix(0, 3) * Matrix(3, 2);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 2u);
  const Matrix d = Matrix(2, 0) * Matrix(0, 3);
  ref::expect_identical(d, Matrix(2, 3, 0.0));
  const Matrix e = Matrix(2, 3, 1.0) * Matrix(3, 0);
  EXPECT_EQ(e.rows(), 2u);
  EXPECT_EQ(e.cols(), 0u);
}

}  // namespace
