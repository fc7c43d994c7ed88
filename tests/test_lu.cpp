#include "linalg/lu.h"

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

}  // namespace
