// Dense row-major matrix of doubles with the operations the QBD engine
// needs. Deliberately dependency-free: the matrices in this project are a
// few hundred to a few thousand rows. Every O(n^3) loop (the matrix
// product here, the LU factorization and multi-RHS solve in lu.h) runs
// through one row-update kernel, detail::add_scaled_rows, which is
// vectorised over columns and keeps each entry's floating-point operations
// in the order of the plain scalar loops.
//
// The QBD blocks these loops see are mostly zeros, so each loop also skips
// operand regions that are provably zero: zero multipliers, zero columns of
// a right operand, and (in lu.h and markov/gth.h) the zero regions of the
// matrix being factored. Skipping only drops updates of the form
// v + a·0, so the results are bit-identical to the dense scalar loops in
// tests/linalg_reference.h in this sense: every nonzero entry is equal,
// and only the sign of an exact zero may differ. That holds for finite
// operands: the dense loops turn Inf·0 into NaN where the skips leave 0.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace rlb::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transpose() const;

  /// Max row sum of absolute values (infinity norm).
  [[nodiscard]] double norm_inf() const;

  /// Largest absolute entry.
  [[nodiscard]] double max_abs() const;

  /// Row sums as a vector.
  [[nodiscard]] Vector row_sums() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double s);
Matrix operator*(double s, Matrix rhs);

/// Dense matrix product. Row i of the result starts at 0.0 and receives
/// a(i,k)·b(k,:) for each nonzero a(i,k) in ascending k, so each entry sees
/// the same operations in the same order as the scalar ikj loop. Zero
/// multipliers are skipped, and so are b's all-zero columns: one row-major
/// scan finds b's nonzero columns, the kernel runs on those only, and the
/// results are scattered back in place. For finite operands, bit-identical
/// to the scalar loop: every nonzero entry is equal; only the sign of an
/// exact zero may differ.
Matrix operator*(const Matrix& a, const Matrix& b);

/// Row-vector times matrix: returns x^T A as a vector.
Vector vec_mat(const Vector& x, const Matrix& a);

/// Matrix times column vector.
Vector mat_vec(const Matrix& a, const Vector& x);

// -- Vector helpers -----------------------------------------------------

double dot(const Vector& a, const Vector& b);
double sum(const Vector& a);
double norm_inf(const Vector& a);
Vector& axpy(Vector& y, double alpha, const Vector& x);  // y += alpha * x
Vector scaled(Vector v, double s);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

namespace detail {

/// The shared row-update kernel: for every column c < m, in this order,
///   dst[c] += coef[0]·rows[0][c];  dst[c] += coef[1]·rows[1][c];  …
/// up to coef[k-1]·rows[k-1][c]. Each entry gets exactly that sequence of
/// rounded multiplies and adds, so results equal a scalar loop that makes
/// the same updates one row at a time. No source row may overlap dst.
/// Callers skip zero multipliers; subtraction passes negated coefficients
/// (v + (-a)·r rounds exactly like v - a·r).
void add_scaled_rows(double* dst, const double* coef,
                     const double* const* rows, std::size_t k, std::size_t m);

/// Ascending indices of the columns of `m` that hold a nonzero, found in
/// one row-major scan.
std::vector<std::size_t> nonzero_columns(const Matrix& m);

/// Copies entries cols[0], cols[1], … of the `width`-wide row `src` to
/// dst[0], dst[1], …; a plain block copy when `cols` is every column.
void gather_columns(double* dst, const double* src,
                    const std::vector<std::size_t>& cols, std::size_t width);

/// Spreads a packed result over its full width, in place. On entry the
/// first x.rows() · cols.size() entries of x's storage hold a row-major
/// x.rows() × cols.size() matrix and the rest are 0.0; on exit x holds
/// that matrix's column c at column cols[c] and zeros elsewhere. `cols` is
/// ascending.
void unpack_columns(Matrix& x, const std::vector<std::size_t>& cols);

}  // namespace detail

}  // namespace rlb::linalg
