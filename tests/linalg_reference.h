// Scalar reference loops for the dense linear algebra, kept as a test
// oracle.
//
// These are the original one-entry-at-a-time dense loops: the ikj matrix
// product, the right-looking LU factorization with partial pivoting, the
// single-RHS substitution, a multi-RHS solve that pushes each column
// through it, and the GTH stationary solver. The production code
// (linalg/matrix.cpp, linalg/lu.cpp, markov/gth.cpp) runs the same
// arithmetic through one vectorised row-update kernel and skips operand
// regions that are provably zero. It must match these entry for entry,
// with ==, not within a tolerance (== also treats -0.0 and 0.0 as equal,
// and the sign of an exact zero is the one thing skipping may change).
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
#include "sqd/blocks_builder.h"

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

  /// perm()[k] is the input row that became pivot row k.
  [[nodiscard]] const std::vector<std::size_t>& perm() const { return perm_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Stationary distribution of an irreducible generator by the dense GTH
/// loop: fold state k into states 0..k-1 over every entry, then back
/// substitute.
inline Vector stationary_gth(const Matrix& generator) {
  const std::size_t n = generator.rows();
  Matrix q = generator;
  for (std::size_t k = n - 1; k >= 1; --k) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += q(k, j);
    if (s <= 0.0) throw std::runtime_error("reference GTH: reducible");
    for (std::size_t i = 0; i < k; ++i) q(i, k) /= s;
    for (std::size_t i = 0; i < k; ++i) {
      const double f = q(i, k);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) q(i, j) += f * q(k, j);
    }
  }
  Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i < k; ++i) s += pi[i] * q(i, k);
    pi[k] = s;
  }
  double total = 0.0;
  for (double v : pi) total += v;
  for (double& v : pi) v /= total;
  return pi;
}

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

/// Uniform entries in [-0.5, 0.5) within `lower` diagonals below and
/// `upper` above the main one, zero outside the band.
inline Matrix banded_matrix(std::size_t n, std::size_t lower,
                            std::size_t upper, sim::Rng& rng) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i > lower ? i - lower : 0; j < n && j <= i + upper;
         ++j)
      m(i, j) = rng.next_double() - 0.5;
  return m;
}

/// Random entries in every seventh column only, the others zero: a
/// scattered column support like logred's B1.
inline Matrix scattered_columns(std::size_t n, sim::Rng& rng) {
  Matrix m = random_matrix(n, n, 1.0, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (j % 7 != 3) m(i, j) = 0.0;
  return m;
}

/// Random entries (half of them nonzero) in the last 31 columns only: a
/// contiguous column support like logred's B2.
inline Matrix trailing_columns(std::size_t n, sim::Rng& rng) {
  Matrix m = random_matrix(n, n, 0.5, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j + 31 < n; ++j) m(i, j) = 0.0;
  return m;
}

/// A generator whose off-diagonal rates, uniform in [0.5, 1.5), lie
/// within `width` diagonals of the main one (a birth-death-like chain).
inline Matrix banded_generator(std::size_t n, std::size_t width,
                               sim::Rng& rng) {
  Matrix q(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double out = 0.0;
    for (std::size_t j = i > width ? i - width : 0; j < n && j <= i + width;
         ++j) {
      if (j == i) continue;
      q(i, j) = 0.5 + rng.next_double();
      out += q(i, j);
    }
    q(i, i) = -out;
  }
  return q;
}

/// The shape of the QBD boundary system: a banded generator, transposed
/// (one balance equation per row), with equation 0 replaced by the dense
/// all-ones normalization row. The rates are scaled to [2.5, 7.5), well
/// above the normalization row's 1, so that row loses the first pivots,
/// is eliminated against them, and wins a later one (around row 2 width
/// in), as it does in the QBD boundary solves.
inline Matrix bordered_matrix(std::size_t n, std::size_t width,
                              sim::Rng& rng) {
  Matrix m = banded_generator(n, width, rng).transpose();
  m *= 5.0;
  for (std::size_t j = 0; j < n; ++j) m(0, j) = 1.0;
  return m;
}

/// Logarithmic reduction's first operands on the Fig. 10(d) (N, T) =
/// (12, 3) upper model at rho = 0.7 (block 364), solved by the reference
/// LU: B1 = (-A1)^{-1} A0, whose 49 nonzero columns are scattered over
/// [0, 301], and B2 = (-A1)^{-1} A2, whose 31 are contiguous in [333, 363].
struct LogredOperands {
  Matrix a0, a1, a2, neg_a1, b1, b2;
};

inline const LogredOperands& logred_operands_12_3() {
  static const LogredOperands ops = [] {
    const sqd::BoundModel model(sqd::Params{12, 2, 0.7, 1.0}, 3,
                                sqd::BoundKind::Upper);
    const auto q = sqd::build_bound_qbd(model);
    LogredOperands o{q.blocks.A0, q.blocks.A1, q.blocks.A2, q.blocks.A1,
                     {},          {}};
    o.neg_a1 *= -1.0;
    const Lu lu(o.neg_a1);
    o.b1 = lu.solve(o.a0);
    o.b2 = lu.solve(o.a2);
    return o;
  }();
  return ops;
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

inline void expect_identical(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(got[i] == want[i])) {
      EXPECT_EQ(got[i], want[i]) << "first mismatch at " << i;
      return;
    }
}

}  // namespace rlb::linalg::reference
