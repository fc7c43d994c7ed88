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

  // reach[k]: one past the last row whose first nonzero input column is
  // <= k. Pivoting at step k only swaps rows in [k, reach[k]), and reach is
  // nondecreasing, so rows at or past reach[k] are still input rows with
  // zeros in columns <= k: no pivot, multiplier or update there.
  std::vector<std::size_t> reach(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = 0;
    while (j < n && lu_(i, j) == 0.0) ++j;
    if (j < n) reach[j] = i + 1;
  }
  for (std::size_t k = 1; k < n; ++k)
    reach[k] = std::max(reach[k], reach[k - 1]);

  // Right-looking elimination, kPanel pivot columns at a time. Inside a
  // panel each step k updates only the panel's columns; the trailing
  // columns then receive the panel's steps in one kernel call per row,
  // lu_(i, j) -= lu_(i, k) * lu_(k, j) for k ascending (k < i, zero
  // multipliers skipped). Every entry thus sees the same operations in
  // the same order as eliminating one column at a time.
  constexpr std::size_t kPanel = 4;
  std::array<double, kPanel> coef{};
  std::array<const double*, kPanel> rows{};
  std::array<std::size_t, kPanel> row_end{};
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(n, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
      // Partial pivoting: bring the largest |entry| in column k to the
      // pivot.
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < reach[k]; ++i) {
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
      for (std::size_t i = k + 1; i < reach[k]; ++i) {
        const double f = lu_(i, k) / pivot;
        lu_(i, k) = f;
        if (f == 0.0) continue;
        for (std::size_t j = k + 1; j < k1; ++j) lu_(i, j) -= f * lu_(k, j);
      }
    }
    if (k1 == n) break;
    // One past the last nonzero trailing entry of pivot row k. Only valid
    // once row k has received its own trailing update below: fill from the
    // earlier pivot rows can move its last nonzero to the right.
    const auto trailing_end = [&](std::size_t k) {
      std::size_t end = n;
      while (end > k1 && lu_(k, end - 1) == 0.0) --end;
      return end;
    };
    row_end[0] = trailing_end(k0);
    // Rows are finished in ascending order, so the pivot rows k < i that
    // row i reads already hold their final trailing entries.
    for (std::size_t i = k0 + 1; i < reach[k1 - 1]; ++i) {
      std::size_t nz = 0;
      std::size_t end = k1;
      for (std::size_t k = k0; k < std::min(i, k1); ++k) {
        const double f = lu_(i, k);
        if (f == 0.0) continue;
        coef[nz] = -f;
        rows[nz++] = &lu_(k, k1);
        end = std::max(end, row_end[k - k0]);
      }
      detail::add_scaled_rows(&lu_(i, k1), coef.data(), rows.data(), nz,
                              end - k1);
      if (i < k1) row_end[i - k0] = trailing_end(i);
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
  Matrix out(n, b.cols(), 0.0);
  // Only B's nonzero columns take part: X is solved for them packed side
  // by side, in the front of out's storage, and unpack_columns moves each
  // to its column. X stays 0.0 under B's zero columns.
  const std::vector<std::size_t> cols = detail::nonzero_columns(b);
  if (out.empty() || cols.empty()) return out;
  const std::size_t m = cols.size();
  double* x = &out(0, 0);  // packed row i of X starts at x + i·m
  for (std::size_t i = 0; i < n; ++i)
    detail::gather_columns(x + i * m, b.data().data() + perm_[i] * b.cols(),
                           cols, b.cols());
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
      rows[nz++] = x + j * m;
    }
    detail::add_scaled_rows(x + i * m, coef.data(), rows.data(), nz, m);
  };
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 0; i < n; ++i) subtract_rows(i, 0, i);
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    subtract_rows(i, i + 1, n);
    const double d = lu_(i, i);
    for (std::size_t c = 0; c < m; ++c) x[i * m + c] /= d;
  }
  detail::unpack_columns(out, cols);
  return out;
}

Matrix Lu::inverse() const { return solve(Matrix::identity(size())); }

Vector solve(const Matrix& a, Vector b) { return Lu(a).solve(std::move(b)); }

Matrix solve(const Matrix& a, const Matrix& b) { return Lu(a).solve(b); }

Matrix inverse(const Matrix& a) { return Lu(a).inverse(); }

Vector solve_transposed(const Matrix& a, Vector b) {
  return Lu(a.transpose()).solve(std::move(b));
}

}  // namespace rlb::linalg
