// LU decomposition with partial pivoting, plus solve/inverse built on it.
#pragma once

#include "linalg/matrix.h"

namespace rlb::linalg {

/// Factorization P·A = L·U stored compactly. Throws std::runtime_error if A
/// is numerically singular. The elimination runs in panels of four pivot
/// columns through the shared row-update kernel (detail::add_scaled_rows);
/// every entry of L and U gets the same operations, in the same order, as
/// eliminating one column at a time.
class Lu {
 public:
  explicit Lu(Matrix a);

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  [[nodiscard]] Vector solve(Vector b) const;

  /// Solve A X = B for all columns at once, row by row through the shared
  /// row-update kernel (detail::add_scaled_rows). Each entry of X gets the
  /// same operations in the same order as solve(Vector) on its column, so
  /// the two compare equal; zero multipliers of L and U are skipped.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// A^{-1} (one multi-RHS solve against the identity).
  [[nodiscard]] Matrix inverse() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// One-shot helpers.
Vector solve(const Matrix& a, Vector b);
Matrix solve(const Matrix& a, const Matrix& b);
Matrix inverse(const Matrix& a);

/// Solve x^T A = b^T (i.e., A^T x = b) without forming the transpose at the
/// call site.
Vector solve_transposed(const Matrix& a, Vector b);

}  // namespace rlb::linalg
