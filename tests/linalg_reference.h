// Scalar reference loops for the dense linear algebra, kept as a test
// oracle.
//
// These are the original one-entry-at-a-time loops: the ikj matrix
// product, the right-looking LU factorization with partial pivoting, the
// single-RHS substitution, and a multi-RHS solve that pushes each column
// through it. The production code (linalg/matrix.cpp, linalg/lu.cpp) runs
// the same arithmetic through one vectorised row-update kernel and must
// match these entry for entry, with ==, not within a tolerance.
//
// Header-only on purpose: the test targets are globbed, so this needs no
// build-system entry, and nothing under src/ can reach it.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "sim/rng.h"

namespace rlb::linalg::reference {

/// c(i,j) += a(i,k) * b(k,j) over k ascending, skipping a(i,k) == 0.
inline Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

/// Multi-RHS solve one column at a time through `lu.solve(Vector)`; works
/// for linalg::Lu and reference::Lu alike.
template <class Solver>
Matrix solve_by_columns(const Solver& lu, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  Vector col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    const Vector sol = lu.solve(col);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = sol[i];
  }
  return x;
}

/// P·A = L·U, one scalar entry at a time.
class Lu {
 public:
  explicit Lu(Matrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::abs(lu_(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best < 1e-300) throw std::runtime_error("reference Lu: singular");
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
        std::swap(perm_[k], perm_[piv]);
      }
      const double pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double f = lu_(i, k) / pivot;
        lu_(i, k) = f;
        if (f == 0.0) continue;
        for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= f * lu_(k, j);
      }
    }
  }

  [[nodiscard]] Vector solve(Vector b) const {
    const std::size_t n = lu_.rows();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
      x[i] /= lu_(i, i);
    }
    return x;
  }

  [[nodiscard]] Matrix solve(const Matrix& b) const {
    return solve_by_columns(*this, b);
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Uniform entries in [-0.5, 0.5); each entry is nonzero with probability
/// `density` (1.0 = dense).
inline Matrix random_matrix(std::size_t rows, std::size_t cols,
                            double density, sim::Rng& rng) {
  Matrix m(rows, cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (density >= 1.0 || rng.next_double() < density)
        m(i, j) = rng.next_double() - 0.5;
  return m;
}

/// EXPECT_EQ on the shape and on every entry; reports the first mismatch.
inline void expect_identical(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      if (!(got(i, j) == want(i, j))) {
        EXPECT_EQ(got(i, j), want(i, j)) << "first mismatch at (" << i
                                         << ", " << j << ")";
        return;
      }
}

}  // namespace rlb::linalg::reference
