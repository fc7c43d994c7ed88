#include "qbd/logred.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "linalg_reference.h"
#include "qbd/drift.h"
#include "sqd/blocks_builder.h"

namespace {

using rlb::linalg::Matrix;
namespace qbd = rlb::qbd;

// The scalar M/M/1 QBD: A0 = lambda, A1 = -(lambda+mu), A2 = mu.
// G = rho-ish: actually G = 1 (certain return) and R = lambda/mu.
qbd::Blocks mm1_blocks(double lambda, double mu) {
  qbd::Blocks b;
  b.A0 = Matrix(1, 1);
  b.A0(0, 0) = lambda;
  b.A1 = Matrix(1, 1);
  b.A1(0, 0) = -(lambda + mu);
  b.A2 = Matrix(1, 1);
  b.A2(0, 0) = mu;
  return b;
}

TEST(LogReduction, Mm1ScalarCase) {
  const auto b = mm1_blocks(0.6, 1.0);
  const auto g = qbd::logarithmic_reduction(b.A0, b.A1, b.A2);
  EXPECT_TRUE(g.converged);
  // For a positive-recurrent QBD, G is stochastic: G = 1 in the scalar case.
  EXPECT_NEAR(g.G(0, 0), 1.0, 1e-12);
  const Matrix r = qbd::rate_matrix_from_g(b.A0, b.A1, g.G);
  EXPECT_NEAR(r(0, 0), 0.6, 1e-12);
}

TEST(LogReduction, ResidualsTiny) {
  const auto b = mm1_blocks(0.95, 1.0);
  const auto g = qbd::logarithmic_reduction(b.A0, b.A1, b.A2);
  EXPECT_LT(g.residual, 1e-12);
  const Matrix r = qbd::rate_matrix_from_g(b.A0, b.A1, g.G);
  EXPECT_LT(qbd::r_residual(b.A0, b.A1, b.A2, r), 1e-12);
}

TEST(LogReduction, MatchesFunctionalIterationOnBoundModel) {
  const rlb::sqd::BoundModel model(rlb::sqd::Params{3, 2, 0.8, 1.0}, 2,
                                   rlb::sqd::BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto g_log =
      qbd::logarithmic_reduction(q.blocks.A0, q.blocks.A1, q.blocks.A2);
  const auto g_fun =
      qbd::functional_iteration(q.blocks.A0, q.blocks.A1, q.blocks.A2);
  EXPECT_TRUE(g_log.converged);
  EXPECT_TRUE(g_fun.converged);
  EXPECT_LT((g_log.G - g_fun.G).max_abs(), 1e-9);
  // Quadratic vs linear convergence.
  EXPECT_LT(g_log.iterations, g_fun.iterations);
}

TEST(LogReduction, GIsStochasticWhenRecurrent) {
  // For a recurrent QBD every level is eventually left downward, so G's
  // rows sum to one.
  const rlb::sqd::BoundModel model(rlb::sqd::Params{3, 2, 0.9, 1.0}, 2,
                                   rlb::sqd::BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto g =
      qbd::logarithmic_reduction(q.blocks.A0, q.blocks.A1, q.blocks.A2);
  for (double rs : g.G.row_sums()) EXPECT_NEAR(rs, 1.0, 1e-10);
  for (std::size_t i = 0; i < g.G.rows(); ++i)
    for (std::size_t j = 0; j < g.G.cols(); ++j)
      EXPECT_GE(g.G(i, j), -1e-14);
}

TEST(LogReduction, PaperClaimFewIterations) {
  // Section IV-A: "the number of iterations is within k = 6" for the
  // paper's configurations. Verify on the Figure 10 configs at high load.
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{
           {3, 2}, {3, 3}, {6, 3}}) {
    const rlb::sqd::BoundModel model(rlb::sqd::Params{n, 2, 0.95, 1.0}, t,
                                     rlb::sqd::BoundKind::Lower);
    const auto q = rlb::sqd::build_bound_qbd(model);
    const auto g =
        qbd::logarithmic_reduction(q.blocks.A0, q.blocks.A1, q.blocks.A2);
    EXPECT_TRUE(g.converged);
    EXPECT_LE(g.iterations, 8) << n << ' ' << t;  // small slack over 6
  }
}

TEST(RateMatrix, SpectralRadiusBelowOneWhenStable) {
  const rlb::sqd::BoundModel model(rlb::sqd::Params{3, 2, 0.85, 1.0}, 2,
                                   rlb::sqd::BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto g =
      qbd::logarithmic_reduction(q.blocks.A0, q.blocks.A1, q.blocks.A2);
  const Matrix r = qbd::rate_matrix_from_g(q.blocks.A0, q.blocks.A1, g.G);
  const auto sp = rlb::linalg::power_iteration(r);
  EXPECT_TRUE(sp.converged);
  EXPECT_LT(sp.value, 1.0);
  EXPECT_GT(sp.value, 0.0);
}

TEST(RateMatrix, Theorem3SpectralRadiusIsRhoN) {
  // The lower bound model's R has spectral radius rho^N (Theorem 3).
  for (double rho : {0.5, 0.8, 0.95}) {
    const rlb::sqd::BoundModel model(rlb::sqd::Params{3, 2, rho, 1.0}, 2,
                                     rlb::sqd::BoundKind::Lower);
    const auto q = rlb::sqd::build_bound_qbd(model);
    const auto g =
        qbd::logarithmic_reduction(q.blocks.A0, q.blocks.A1, q.blocks.A2);
    const Matrix r = qbd::rate_matrix_from_g(q.blocks.A0, q.blocks.A1, g.G);
    const auto sp = rlb::linalg::power_iteration(r);
    EXPECT_NEAR(sp.value, std::pow(rho, 3), 1e-8) << rho;
  }
}

TEST(Drift, LowerModelStableIffRhoBelowOne) {
  for (double rho : {0.5, 0.9, 0.99}) {
    const rlb::sqd::BoundModel model(rlb::sqd::Params{3, 2, rho, 1.0}, 2,
                                     rlb::sqd::BoundKind::Lower);
    const auto q = rlb::sqd::build_bound_qbd(model);
    const auto d = qbd::drift_condition(q.blocks.A0, q.blocks.A1, q.blocks.A2);
    EXPECT_TRUE(d.stable) << rho;
    EXPECT_GT(d.up, 0.0);
    EXPECT_GT(d.down, d.up);
  }
  // Jockeying preserves work, so the lower model stays stable arbitrarily
  // close to saturation.
  const rlb::sqd::BoundModel near_saturation(
      rlb::sqd::Params{3, 2, 0.999, 1.0}, 2, rlb::sqd::BoundKind::Lower);
  const auto qn = rlb::sqd::build_bound_qbd(near_saturation);
  EXPECT_TRUE(
      qbd::drift_condition(qn.blocks.A0, qn.blocks.A1, qn.blocks.A2).stable);
}

TEST(Drift, UpperModelUnstableAtHighRhoSmallT) {
  // Figure 10(a): the T = 2 upper bound for N = 3 diverges well before
  // rho = 1.
  const rlb::sqd::BoundModel model(rlb::sqd::Params{3, 2, 0.95, 1.0}, 2,
                                   rlb::sqd::BoundKind::Upper);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto d = qbd::drift_condition(q.blocks.A0, q.blocks.A1, q.blocks.A2);
  EXPECT_FALSE(d.stable);
}

// The logarithmic-reduction loop of qbd/logred.cpp rebuilt on the scalar
// reference kernels (ikj product, scalar LU, column-by-column solve).
struct ReferenceG {
  Matrix G;
  int iterations = 0;
};

ReferenceG reference_logred(const Matrix& A0, const Matrix& A1,
                            const Matrix& A2, double tol = 1e-14,
                            int max_iter = 64) {
  namespace ref = rlb::linalg::reference;
  const Matrix I = Matrix::identity(A0.rows());
  Matrix neg_a1 = A1;
  neg_a1 *= -1.0;
  const ref::Lu lu(neg_a1);
  Matrix b1 = lu.solve(A0);
  Matrix b2 = lu.solve(A2);
  ReferenceG out;
  out.G = b2;
  Matrix prefix = b1;
  for (int it = 1; it <= max_iter; ++it) {
    out.iterations = it;
    Matrix u = I;
    u -= ref::matmul(b1, b2);
    u -= ref::matmul(b2, b1);
    const ref::Lu lu_u(u);
    const Matrix b1_next = lu_u.solve(ref::matmul(b1, b1));
    const Matrix b2_next = lu_u.solve(ref::matmul(b2, b2));
    const Matrix increment = ref::matmul(prefix, b2_next);
    out.G += increment;
    prefix = ref::matmul(prefix, b1_next);
    b1 = b1_next;
    b2 = b2_next;
    if (increment.max_abs() <= tol) break;
  }
  return out;
}

TEST(LogReduction, GAndREqualScalarReferenceLoops) {
  // A stable (N, T) = (6, 3) upper model (block 56): G and R from the
  // row-update kernel must equal the scalar loops entry for entry.
  namespace ref = rlb::linalg::reference;
  const rlb::sqd::BoundModel model(rlb::sqd::Params{6, 2, 0.7, 1.0}, 3,
                                   rlb::sqd::BoundKind::Upper);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto& b = q.blocks;
  ASSERT_TRUE(qbd::drift_condition(b.A0, b.A1, b.A2).stable);
  ASSERT_EQ(b.block_size(), 56u);

  const auto g = qbd::logarithmic_reduction(b.A0, b.A1, b.A2);
  const ReferenceG want = reference_logred(b.A0, b.A1, b.A2);
  EXPECT_TRUE(g.converged);
  EXPECT_EQ(g.iterations, want.iterations);
  ref::expect_identical(g.G, want.G);

  const Matrix r = qbd::rate_matrix_from_g(b.A0, b.A1, g.G);
  Matrix neg_a0_t = b.A0.transpose();
  neg_a0_t *= -1.0;
  const Matrix k = b.A1 + ref::matmul(b.A0, want.G);
  const Matrix r_want = ref::Lu(k.transpose()).solve(neg_a0_t).transpose();
  ref::expect_identical(r, r_want);
}

}  // namespace
