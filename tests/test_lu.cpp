#include "linalg/lu.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg_reference.h"
#include "sim/rng.h"

namespace {

using rlb::linalg::Lu;
using rlb::linalg::Matrix;
using rlb::linalg::Vector;

TEST(Lu, Solves2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const Vector x = rlb::linalg::solve(a, rlb::linalg::Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const Vector x = rlb::linalg::solve(a, rlb::linalg::Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(Lu lu(a), std::runtime_error);
}

TEST(Lu, RandomRoundTrip) {
  rlb::sim::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 20 + trial * 7;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
      a(i, i) += n;  // diagonally dominant -> well conditioned
    }
    Vector x_true(n);
    for (auto& v : x_true) v = rng.next_double() * 2.0 - 1.0;
    const Vector b = rlb::linalg::mat_vec(a, x_true);
    const Vector x = rlb::linalg::solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  rlb::sim::Rng rng(7);
  const std::size_t n = 30;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
    a(i, i) += 5.0;
  }
  const Matrix inv = rlb::linalg::inverse(a);
  const Matrix prod = a * inv;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Lu, MatrixRhsSolve) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 0;
  a(1, 0) = 0;
  a(1, 1) = 2;
  Matrix b(2, 2);
  b(0, 0) = 6;
  b(0, 1) = 3;
  b(1, 0) = 4;
  b(1, 1) = 2;
  const Matrix x = rlb::linalg::solve(a, b);
  EXPECT_NEAR(x(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 1.0, 1e-12);
}

TEST(Lu, SolveTransposed) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 0;
  a(1, 1) = 1;
  // x^T A = b^T with b = (1, 4) -> x solves A^T x = b: x = (1, 2).
  const Vector x = rlb::linalg::solve_transposed(a, {1.0, 4.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// -- Row-update kernel vs the scalar substitution loops -----------------
//
// Lu::solve(Matrix) must equal, entry for entry (==), pushing each column
// through Lu::solve(Vector); the factorization (also on the kernel) must
// equal the scalar reference factorization.

namespace ref = rlb::linalg::reference;

constexpr std::size_t kKernelSizes[] = {1, 3, 5, 7, 37, 364};

// Random entries plus a dominant superdiagonal (wrapping), so partial
// pivoting has to swap rows; nonsingular for every size used here.
Matrix pivoting_matrix(std::size_t n, double density, rlb::sim::Rng& rng) {
  Matrix a = ref::random_matrix(n, n, density, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, (i + 1) % n) += 2.0;
  return a;
}

void expect_solves_identical(const Matrix& a, const Matrix& b) {
  const Lu lu(a);
  const Matrix x = lu.solve(b);
  ref::expect_identical(x, ref::solve_by_columns(lu, b));
  ref::expect_identical(x, ref::Lu(a).solve(b));
}

TEST(LuKernel, DenseSolveEqualsColumnByColumn) {
  rlb::sim::Rng rng(201);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    const Matrix a = pivoting_matrix(n, 1.0, rng);
    expect_solves_identical(a, ref::random_matrix(n, n, 1.0, rng));
  }
}

TEST(LuKernel, SparseSolveEqualsColumnByColumn) {
  rlb::sim::Rng rng(202);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    const Matrix a = pivoting_matrix(n, 0.13, rng);
    expect_solves_identical(a, ref::random_matrix(n, n, 0.13, rng));
    expect_solves_identical(a, ref::random_matrix(n, n, 1.0, rng));
  }
}

TEST(LuKernel, RectangularRhsEqualsColumnByColumn) {
  rlb::sim::Rng rng(203);
  for (const std::size_t n : kKernelSizes) {
    const Matrix a = pivoting_matrix(n, n > 7 ? 0.13 : 1.0, rng);
    for (const std::size_t m : {std::size_t{1}, std::size_t{3}, 2 * n + 1}) {
      SCOPED_TRACE(testing::Message() << n << "x" << m);
      expect_solves_identical(a, ref::random_matrix(n, m, 1.0, rng));
    }
  }
}

TEST(LuKernel, ZeroRowsAndColumnsEqualColumnByColumn) {
  rlb::sim::Rng rng(204);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    Matrix b = ref::random_matrix(n, n + 2, 1.0, rng);
    for (std::size_t i = 0; i < n; i += 3)
      for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = 0.0;
    for (std::size_t j = 1; j < b.cols(); j += 4)
      for (std::size_t i = 0; i < n; ++i) b(i, j) = 0.0;
    expect_solves_identical(pivoting_matrix(n, 0.13, rng), b);
    // Triangular factors that are all zero off the diagonal: the kernel
    // gets no rows at all.
    Matrix diag(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) diag(i, i) = 1.5 + 0.25 * i;
    expect_solves_identical(diag, b);
    expect_solves_identical(diag, Matrix(n, 4, 0.0));
  }
}

TEST(LuKernel, FactorizationEqualsScalarLoop) {
  rlb::sim::Rng rng(205);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    for (const double density : {1.0, 0.13}) {
      const Matrix a = pivoting_matrix(n, density, rng);
      const Lu lu(a);
      const ref::Lu want(a);
      for (int trial = 0; trial < 3; ++trial) {
        Vector b(n);
        for (auto& v : b) v = rng.next_double() - 0.5;
        const Vector got = lu.solve(b);
        const Vector expect = want.solve(b);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], expect[i]);
      }
    }
  }
}

TEST(LuKernel, InverseEqualsColumnByColumn) {
  rlb::sim::Rng rng(206);
  for (const std::size_t n : {std::size_t{5}, std::size_t{37}}) {
    const Matrix a = pivoting_matrix(n, 1.0, rng);
    const Lu lu(a);
    ref::expect_identical(lu.inverse(),
                          ref::solve_by_columns(lu, Matrix::identity(n)));
  }
}

TEST(LuKernel, EmptyRhs) {
  const Lu lu(Matrix::identity(3));
  const Matrix x = lu.solve(Matrix(3, 0));
  EXPECT_EQ(x.rows(), 3u);
  EXPECT_EQ(x.cols(), 0u);
  EXPECT_THROW(static_cast<void>(lu.solve(Matrix(2, 2))),
               std::invalid_argument);
}

// -- Structured matrices -------------------------------------------------
//
// The zero regions that the factorization skips (rows past a column's
// reach, trailing entries past the panel pivot rows' last nonzero) and
// that solve(Matrix) skips (zero right-hand-side columns).

// Factorization and both solves against the scalar reference.
void expect_factorization_identical(const Matrix& a, rlb::sim::Rng& rng) {
  const std::size_t n = a.rows();
  const Lu lu(a);
  const ref::Lu want(a);
  for (int trial = 0; trial < 3; ++trial) {
    Vector b(n);
    for (auto& v : b) v = rng.next_double() - 0.5;
    const Vector got = lu.solve(b);
    const Vector expect = want.solve(b);
    ref::expect_identical(got, expect);
  }
  const Matrix rhs = ref::random_matrix(n, n + 1, 1.0, rng);
  ref::expect_identical(lu.solve(rhs), want.solve(rhs));
}

TEST(LuKernel, BandedFactorizationEqualsScalarLoop) {
  rlb::sim::Rng rng(207);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    // A dominant superdiagonal (no wrap) makes pivoting swap rows inside
    // the band.
    Matrix a = ref::banded_matrix(n, 3, 2, rng);
    for (std::size_t i = 0; i + 1 < n; ++i) a(i, i + 1) += 2.0;
    if (n == 1) a(0, 0) += 2.0;
    expect_factorization_identical(a, rng);
    expect_factorization_identical(ref::banded_matrix(n, 48, 50, rng), rng);
  }
}

TEST(LuKernel, BorderedRowThatWinsAPivotEqualsScalarLoop) {
  rlb::sim::Rng rng(208);
  for (const std::size_t n : {std::size_t{37}, std::size_t{364}}) {
    SCOPED_TRACE(n);
    const Matrix m = ref::bordered_matrix(n, 4, rng);
    // The all-ones row 0 loses the first pivots, is eliminated against
    // them, and is swapped in later, filling every row below it.
    const ref::Lu want(m);
    const auto& perm = want.perm();
    const auto pos = static_cast<std::size_t>(
        std::find(perm.begin(), perm.end(), std::size_t{0}) - perm.begin());
    EXPECT_GT(pos, 0u);
    EXPECT_LT(pos, n - 1);
    expect_factorization_identical(m, rng);
  }
}

TEST(LuKernel, RowsStartingRightOfDiagonalEqualScalarLoop) {
  rlb::sim::Rng rng(209);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    Matrix a = ref::banded_matrix(n, 2, 3, rng);
    for (std::size_t i = 0; i + 2 < n; i += 3)
      for (std::size_t j = 0; j <= i; ++j) a(i, j) = 0.0;
    expect_factorization_identical(a, rng);
  }
}

TEST(LuKernel, ZeroColumnSupportsEqualColumnByColumn) {
  rlb::sim::Rng rng(210);
  for (const std::size_t n : kKernelSizes) {
    SCOPED_TRACE(n);
    const Matrix a = pivoting_matrix(n, 0.13, rng);
    const Matrix scattered = ref::scattered_columns(n, rng);
    const Matrix contiguous = ref::trailing_columns(n, rng);
    expect_solves_identical(a, scattered);
    expect_solves_identical(a, contiguous);
  }
}

TEST(LuKernel, LogredOperandSolvesEqualScalarLoop) {
  // B1 = (-A1)^{-1} A0 and B2 = (-A1)^{-1} A2 on the (12, 3) upper model,
  // then the first doubling step's U^{-1} (B1 B1) and U^{-1} (B2 B2).
  const auto& ops = ref::logred_operands_12_3();
  const Lu lu(ops.neg_a1);
  ref::expect_identical(lu.solve(ops.a0), ops.b1);
  ref::expect_identical(lu.solve(ops.a2), ops.b2);
  Matrix u = Matrix::identity(ops.b1.rows());
  u -= ref::matmul(ops.b1, ops.b2);
  u -= ref::matmul(ops.b2, ops.b1);
  const Lu lu_u(u);
  const ref::Lu want_u(u);
  const Matrix b11 = ref::matmul(ops.b1, ops.b1);
  const Matrix b22 = ref::matmul(ops.b2, ops.b2);
  ref::expect_identical(lu_u.solve(b11), want_u.solve(b11));
  ref::expect_identical(lu_u.solve(b22), want_u.solve(b22));
}

TEST(LuKernel, AllZeroOneByOneAndEmpty) {
  rlb::sim::Rng rng(211);
  const Matrix a = pivoting_matrix(7, 1.0, rng);
  ref::expect_identical(Lu(a).solve(Matrix(7, 3, 0.0)), Matrix(7, 3, 0.0));
  Matrix one(1, 1);
  one(0, 0) = -0.375;
  expect_factorization_identical(one, rng);
  ref::expect_identical(Lu(one).solve(Matrix(1, 2, 0.0)), Matrix(1, 2, 0.0));
  EXPECT_THROW(Lu(Matrix(1, 1, 0.0)), std::runtime_error);
  // A zero row: singular, found at the column no row reaches.
  Matrix zero_row = pivoting_matrix(5, 1.0, rng);
  for (std::size_t j = 0; j < 5; ++j) zero_row(4, j) = 0.0;
  EXPECT_THROW(Lu{zero_row}, std::runtime_error);
  const Lu empty(Matrix(0, 0));
  EXPECT_EQ(empty.solve(Matrix(0, 3)).cols(), 3u);
  EXPECT_TRUE(empty.solve(Vector{}).empty());
}

}  // namespace
