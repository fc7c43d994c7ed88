#include "linalg/lu.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "util/require.h"

namespace rlb::linalg {

Lu::Lu(Matrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
  RLB_REQUIRE(lu_.rows() == lu_.cols(), "LU needs a square matrix");
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  // Right-looking elimination, kPanel pivot columns at a time. Inside a
  // panel each step k updates only the panel's columns; the trailing
  // columns then receive the panel's steps in one kernel call per row,
  // lu_(i, j) -= lu_(i, k) * lu_(k, j) for k ascending (k < i, zero
  // multipliers skipped). Every entry thus sees the same operations in
  // the same order as eliminating one column at a time.
  constexpr std::size_t kPanel = 4;
  std::array<double, kPanel> coef{};
  std::array<const double*, kPanel> rows{};
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(n, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
      // Partial pivoting: bring the largest |entry| in column k to the
      // pivot.
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::abs(lu_(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best < 1e-300)
        throw std::runtime_error("Lu: matrix is numerically singular");
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
        std::swap(perm_[k], perm_[piv]);
      }
      const double pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double f = lu_(i, k) / pivot;
        lu_(i, k) = f;
        if (f == 0.0) continue;
        for (std::size_t j = k + 1; j < k1; ++j) lu_(i, j) -= f * lu_(k, j);
      }
    }
    if (k1 == n) break;
    // Rows are finished in ascending order, so the pivot rows k < i that
    // row i reads already hold their final trailing entries.
    for (std::size_t i = k0 + 1; i < n; ++i) {
      std::size_t nz = 0;
      for (std::size_t k = k0; k < std::min(i, k1); ++k) {
        const double f = lu_(i, k);
        if (f == 0.0) continue;
        coef[nz] = -f;
        rows[nz++] = &lu_(k, k1);
      }
      detail::add_scaled_rows(&lu_(i, k1), coef.data(), rows.data(), nz,
                              n - k1);
    }
  }
}

Vector Lu::solve(Vector b) const {
  const std::size_t n = size();
  RLB_REQUIRE(b.size() == n, "Lu::solve shape mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
    x[i] /= lu_(i, i);
  }
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  const std::size_t n = size();
  RLB_REQUIRE(b.rows() == n, "Lu::solve shape mismatch");
  const std::size_t m = b.cols();
  Matrix x(n, m);
  if (x.empty()) return x;
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(b.data().data() + perm_[i] * m, m, &x(i, 0));
  // Row i of X gets, per entry, the updates solve(Vector) makes to x[i]:
  // x(i,:) -= lu_(i,j) * x(j,:) for j in [j0, j1) ascending, skipping zero
  // multipliers.
  std::vector<double> coef(n);
  std::vector<const double*> rows(n);
  const auto subtract_rows = [&](std::size_t i, std::size_t j0,
                                 std::size_t j1) {
    std::size_t nz = 0;
    for (std::size_t j = j0; j < j1; ++j) {
      const double l = lu_(i, j);
      if (l == 0.0) continue;
      coef[nz] = -l;
      rows[nz++] = &x(j, 0);
    }
    detail::add_scaled_rows(&x(i, 0), coef.data(), rows.data(), nz, m);
  };
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 0; i < n; ++i) subtract_rows(i, 0, i);
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    subtract_rows(i, i + 1, n);
    const double d = lu_(i, i);
    for (std::size_t c = 0; c < m; ++c) x(i, c) /= d;
  }
  return x;
}

Matrix Lu::inverse() const { return solve(Matrix::identity(size())); }

Vector solve(const Matrix& a, Vector b) { return Lu(a).solve(std::move(b)); }

Matrix solve(const Matrix& a, const Matrix& b) { return Lu(a).solve(b); }

Matrix inverse(const Matrix& a) { return Lu(a).inverse(); }

Vector solve_transposed(const Matrix& a, Vector b) {
  return Lu(a.transpose()).solve(std::move(b));
}

}  // namespace rlb::linalg
