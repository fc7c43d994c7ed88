// LU decomposition with partial pivoting, plus solve/inverse built on it.
#pragma once

#include "linalg/matrix.h"

namespace rlb::linalg {

/// Factorization P·A = L·U stored compactly. Throws std::runtime_error if A
/// is numerically singular. The elimination runs in panels of four pivot
/// columns through the shared row-update kernel (detail::add_scaled_rows);
/// every entry of L and U gets the same operations, in the same order, as
/// eliminating one column at a time. Provably zero regions are skipped:
///  - column k's reach is one past the last row whose first nonzero input
///    column is <= k. Rows at or past it hold zeros in columns <= k
///    throughout (pivoting only swaps rows above it), so the pivot search,
///    the multipliers and the trailing updates for column k stop there;
///  - each trailing update stops at the last nonzero of the panel pivot
///    rows that have nonzero multipliers, measured once those rows hold
///    their final trailing entries.
/// For a finite A, bit-identical to the dense scalar loop: every nonzero
/// entry of L and U is equal; only the sign of an exact zero may differ.
class Lu {
 public:
  explicit Lu(Matrix a);

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  [[nodiscard]] Vector solve(Vector b) const;

  /// Solve A X = B for all columns at once, row by row through the shared
  /// row-update kernel (detail::add_scaled_rows). Each entry of X gets the
  /// same operations in the same order as solve(Vector) on its column.
  /// Zero multipliers of L and U are skipped, and so are B's all-zero
  /// columns (one row-major scan finds the rest; X is zero under the
  /// skipped ones). For a finite B, bit-identical to solve(Vector) column
  /// by column: every nonzero entry is equal; only the sign of an exact
  /// zero may differ.
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
