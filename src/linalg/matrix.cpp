#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <ostream>

#include "util/require.h"

namespace rlb::linalg {

namespace {

// dst[c] += a0·r0[c], then a1·r1[c], a2·r2[c], a3·r3[c], with the entry held
// in a register across the four updates.
void add_four_rows(double* __restrict dst, const double* __restrict r0,
                   const double* __restrict r1, const double* __restrict r2,
                   const double* __restrict r3, double a0, double a1,
                   double a2, double a3, std::size_t m) {
  for (std::size_t c = 0; c < m; ++c) {
    double v = dst[c];
    v += a0 * r0[c];
    v += a1 * r1[c];
    v += a2 * r2[c];
    v += a3 * r3[c];
    dst[c] = v;
  }
}

void add_one_row(double* __restrict dst, const double* __restrict r0,
                 double a0, std::size_t m) {
  for (std::size_t c = 0; c < m; ++c) dst[c] += a0 * r0[c];
}

}  // namespace

namespace detail {

void add_scaled_rows(double* dst, const double* coef,
                     const double* const* rows, std::size_t k,
                     std::size_t m) {
  std::size_t r = 0;
  for (; r + 4 <= k; r += 4)
    add_four_rows(dst, rows[r], rows[r + 1], rows[r + 2], rows[r + 3],
                  coef[r], coef[r + 1], coef[r + 2], coef[r + 3], m);
  for (; r < k; ++r) add_one_row(dst, rows[r], coef[r], m);
}

std::vector<std::size_t> nonzero_columns(const Matrix& m) {
  // Flag each column whose entries' bit patterns, ORed four rows at a time
  // with the sign bit shifted out, leave a mark: only a nonzero entry does
  // (and the loop vectorises). Then compact the flagged indices in place.
  const std::size_t w = m.cols();
  const double* d = m.data().data();
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  std::vector<std::size_t> cols(w, 0);
  std::size_t i = 0;
  for (; i + 4 <= m.rows(); i += 4) {
    const double* r = d + i * w;
    for (std::size_t j = 0; j < w; ++j)
      cols[j] |= ((bits(r[j]) | bits(r[w + j]) | bits(r[2 * w + j]) |
                   bits(r[3 * w + j]))
                  << 1) != 0;
  }
  for (; i < m.rows(); ++i)
    for (std::size_t j = 0; j < w; ++j)
      cols[j] |= (bits(d[i * w + j]) << 1) != 0;
  std::size_t nz = 0;
  for (std::size_t j = 0; j < w; ++j)
    if (cols[j] != 0) cols[nz++] = j;
  cols.resize(nz);
  return cols;
}

void gather_columns(double* dst, const double* src,
                    const std::vector<std::size_t>& cols, std::size_t width) {
  if (cols.size() == width) {
    std::copy_n(src, width, dst);
    return;
  }
  for (std::size_t c = 0; c < cols.size(); ++c) dst[c] = src[cols[c]];
}

void unpack_columns(Matrix& x, const std::vector<std::size_t>& cols) {
  const std::size_t w = x.cols();
  const std::size_t m = cols.size();
  if (m == w || x.rows() == 0) return;
  double* d = &x(0, 0);
  // Rows descend, so full row i never covers an unread packed row: packed
  // rows above i end at i·m <= i·w. Row i is copied out before its full
  // row is written, and only the part of that row inside the packed front
  // needs zeros.
  const std::size_t front = x.rows() * m;
  std::vector<double> row(m);
  for (std::size_t i = x.rows(); i-- > 0;) {
    std::copy_n(d + i * m, m, row.data());
    double* full = d + i * w;
    if (i * w < front) std::fill_n(full, std::min(w, front - i * w), 0.0);
    for (std::size_t c = 0; c < m; ++c) full[cols[c]] = row[c];
  }
}

}  // namespace detail

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  RLB_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  RLB_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

double Matrix::norm_inf() const {
  double best = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += std::abs((*this)(i, j));
    best = std::max(best, s);
  }
  return best;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

Vector Matrix::row_sums() const {
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j);
  return out;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  RLB_REQUIRE(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  // Only b's nonzero columns take part: the kernel runs on them packed
  // side by side, into the front of c's storage, and unpack_columns moves
  // each result to its column. c stays 0.0 under b's zero columns.
  const std::vector<std::size_t> cols = detail::nonzero_columns(b);
  if (c.empty() || cols.empty()) return c;
  const std::size_t m = cols.size();
  // b's rows cut down to those columns, when b has zero columns.
  const double* bp = b.data().data();
  std::vector<double> packed;
  if (m < b.cols()) {
    packed.resize(b.rows() * m);
    for (std::size_t k = 0; k < b.rows(); ++k)
      detail::gather_columns(packed.data() + k * m, bp + k * b.cols(), cols,
                             b.cols());
    bp = packed.data();
  }
  double* out = &c(0, 0);
  std::vector<double> coef(a.cols());
  std::vector<const double*> rows(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::size_t nz = 0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      coef[nz] = aik;
      rows[nz++] = bp + k * m;
    }
    detail::add_scaled_rows(out + i * m, coef.data(), rows.data(), nz, m);
  }
  detail::unpack_columns(c, cols);
  return c;
}

Vector vec_mat(const Vector& x, const Matrix& a) {
  RLB_REQUIRE(x.size() == a.rows(), "vec_mat shape mismatch");
  Vector out(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += xi * a(i, j);
  }
  return out;
}

Vector mat_vec(const Matrix& a, const Vector& x) {
  RLB_REQUIRE(x.size() == a.cols(), "mat_vec shape mismatch");
  Vector out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    out[i] = s;
  }
  return out;
}

double dot(const Vector& a, const Vector& b) {
  RLB_REQUIRE(a.size() == b.size(), "dot shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double sum(const Vector& a) {
  double s = 0.0;
  for (double v : a) s += v;
  return s;
}

double norm_inf(const Vector& a) {
  double best = 0.0;
  for (double v : a) best = std::max(best, std::abs(v));
  return best;
}

Vector& axpy(Vector& y, double alpha, const Vector& x) {
  RLB_REQUIRE(y.size() == x.size(), "axpy shape mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
  return y;
}

Vector scaled(Vector v, double s) {
  for (double& x : v) x *= s;
  return v;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << std::setw(12) << std::setprecision(5) << m(i, j)
         << (j + 1 == m.cols() ? "" : " ");
    os << '\n';
  }
  return os;
}

}  // namespace rlb::linalg
