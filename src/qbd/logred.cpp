#include "qbd/logred.h"

#include <utility>

#include "linalg/lu.h"
#include "util/require.h"

namespace rlb::qbd {

using linalg::Lu;
using linalg::Matrix;

namespace {

void check_shapes(const Matrix& A0, const Matrix& A1, const Matrix& A2) {
  RLB_REQUIRE(A0.rows() == A0.cols() && A1.rows() == A1.cols() &&
                  A2.rows() == A2.cols(),
              "QBD blocks must be square");
  RLB_REQUIRE(A0.rows() == A1.rows() && A1.rows() == A2.rows(),
              "QBD blocks must agree in size");
}

}  // namespace

GResult logarithmic_reduction(const Matrix& A0, const Matrix& A1,
                              const Matrix& A2, double tol, int max_iter) {
  check_shapes(A0, A1, A2);
  const std::size_t n = A0.rows();
  const Matrix I = Matrix::identity(n);

  // B1 = (-A1)^{-1} A0,  B2 = (-A1)^{-1} A2.
  Matrix neg_a1 = A1;
  neg_a1 *= -1.0;
  const Lu lu(std::move(neg_a1));
  Matrix b1 = lu.solve(A0);
  Matrix b2 = lu.solve(A2);

  // G = sum_{k>=1} (prod_{i<k} B1_i) B2_k, accumulated incrementally:
  // after each doubling step, G += prefix * B2 with prefix = prod B1.
  Matrix g = b2;
  Matrix prefix = b1;

  GResult out;
  for (int it = 1; it <= max_iter; ++it) {
    out.iterations = it;
    // U = I - B1 B2 - B2 B1.
    Matrix u = I;
    u -= b1 * b2;
    u -= b2 * b1;
    const Lu lu_u(std::move(u));
    const Matrix b1_next = lu_u.solve(b1 * b1);
    const Matrix b2_next = lu_u.solve(b2 * b2);
    const Matrix increment = prefix * b2_next;
    g += increment;
    prefix = prefix * b1_next;
    b1 = b1_next;
    b2 = b2_next;
    if (increment.max_abs() <= tol) {
      out.converged = true;
      break;
    }
  }
  out.G = std::move(g);
  out.residual = g_residual(A0, A1, A2, out.G);
  return out;
}

GResult functional_iteration(const Matrix& A0, const Matrix& A1,
                             const Matrix& A2, double tol, int max_iter) {
  check_shapes(A0, A1, A2);
  Matrix neg_a1 = A1;
  neg_a1 *= -1.0;
  const Lu lu(std::move(neg_a1));
  Matrix g(A0.rows(), A0.cols(), 0.0);
  GResult out;
  for (int it = 1; it <= max_iter; ++it) {
    out.iterations = it;
    Matrix next = lu.solve(A2 + A0 * (g * g));
    Matrix diff = next;
    diff -= g;
    g = std::move(next);
    if (diff.max_abs() <= tol) {
      out.converged = true;
      break;
    }
  }
  out.G = std::move(g);
  out.residual = g_residual(A0, A1, A2, out.G);
  return out;
}

Matrix rate_matrix_from_g(const Matrix& A0, const Matrix& A1,
                          const Matrix& G) {
  // R = -A0 (A1 + A0 G)^{-1}  <=>  R (A1 + A0 G) = -A0
  //  <=>  (A1 + A0 G)^T R^T = -A0^T.
  Matrix k = A1 + A0 * G;
  Matrix neg_a0_t = A0.transpose();
  neg_a0_t *= -1.0;
  return Lu(k.transpose()).solve(neg_a0_t).transpose();
}

double g_residual(const Matrix& A0, const Matrix& A1, const Matrix& A2,
                  const Matrix& G) {
  Matrix res = A2;
  res += A1 * G;
  res += A0 * (G * G);
  return res.max_abs();
}

double r_residual(const Matrix& A0, const Matrix& A1, const Matrix& A2,
                  const Matrix& R) {
  Matrix res = A0;
  res += R * A1;
  res += (R * R) * A2;
  return res.max_abs();
}

}  // namespace rlb::qbd
