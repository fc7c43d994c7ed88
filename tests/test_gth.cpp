#include "markov/gth.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg_reference.h"
#include "sim/rng.h"
#include "sqd/exact_reference.h"

namespace {

namespace mk = rlb::markov;
using rlb::linalg::Matrix;
using rlb::linalg::Vector;

TEST(Gth, TwoStateChain) {
  Matrix q(2, 2);
  q(0, 0) = -1.0;
  q(0, 1) = 1.0;
  q(1, 0) = 2.0;
  q(1, 1) = -2.0;
  const Vector pi = mk::stationary_gth(q);
  EXPECT_NEAR(pi[0], 2.0 / 3.0, 1e-14);
  EXPECT_NEAR(pi[1], 1.0 / 3.0, 1e-14);
}

TEST(Gth, Mm1TruncatedGeometric) {
  const double rho = 0.8;
  const int n = 30;
  Matrix q(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    if (i + 1 < n) {
      q(i, i + 1) = rho;
      q(i, i) -= rho;
    }
    if (i > 0) {
      q(i, i - 1) = 1.0;
      q(i, i) -= 1.0;
    }
  }
  const Vector pi = mk::stationary_gth(q);
  for (int i = 1; i < n; ++i)
    EXPECT_NEAR(pi[i] / pi[i - 1], rho, 1e-12) << i;
}

TEST(Gth, SatisfiesBalanceEquations) {
  Matrix q(4, 4, 0.0);
  const double rates[4][4] = {{0, 1, 2, 0.5},
                              {0.3, 0, 1.5, 0},
                              {2, 0, 0, 1},
                              {0.7, 0.2, 0.1, 0}};
  for (int i = 0; i < 4; ++i) {
    double out = 0.0;
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      q(i, j) = rates[i][j];
      out += rates[i][j];
    }
    q(i, i) = -out;
  }
  const Vector pi = mk::stationary_gth(q);
  const Vector balance = rlb::linalg::vec_mat(pi, q);
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(balance[j], 0.0, 1e-13);
  EXPECT_NEAR(rlb::linalg::sum(pi), 1.0, 1e-13);
}

TEST(Gth, ReducibleChainThrows) {
  Matrix q(2, 2, 0.0);  // two absorbing states, not irreducible
  EXPECT_THROW(mk::stationary_gth(q), std::runtime_error);
}

TEST(GthDtmc, SimpleRandomWalk) {
  Matrix p(3, 3, 0.0);
  p(0, 1) = 1.0;
  p(1, 0) = 0.5;
  p(1, 2) = 0.5;
  p(2, 1) = 1.0;
  const Vector pi = mk::stationary_gth_dtmc(p);
  EXPECT_NEAR(pi[0], 0.25, 1e-13);
  EXPECT_NEAR(pi[1], 0.5, 1e-13);
  EXPECT_NEAR(pi[2], 0.25, 1e-13);
}

TEST(Gth, NumericallyExtremeRates) {
  // Rates spanning 12 orders of magnitude; GTH should stay accurate.
  Matrix q(3, 3, 0.0);
  q(0, 1) = 1e-6;
  q(1, 0) = 1e6;
  q(1, 2) = 1.0;
  q(2, 1) = 1.0;
  for (int i = 0; i < 3; ++i) {
    double out = 0.0;
    for (int j = 0; j < 3; ++j)
      if (i != j) out += q(i, j);
    q(i, i) = -out;
  }
  const Vector pi = mk::stationary_gth(q);
  // Detailed balance for this birth-death chain: pi0 * 1e-6 = pi1 * 1e6.
  EXPECT_NEAR(pi[0] * 1e-6 / (pi[1] * 1e6), 1.0, 1e-10);
  EXPECT_NEAR(pi[1] / pi[2], 1.0, 1e-10);
}

// -- Structured chains vs the dense GTH loop -----------------------------
//
// stationary_gth folds each state over its row's nonzero span and its
// column's nonzero rows only, tracking fill; the result must equal the
// dense loop in linalg_reference.h entry for entry (==).

namespace ref = rlb::linalg::reference;

void set_diagonal(Matrix& q) {
  for (std::size_t i = 0; i < q.rows(); ++i) {
    double out = 0.0;
    for (std::size_t j = 0; j < q.cols(); ++j)
      if (j != i) out += q(i, j);
    q(i, i) = -out;
  }
}

// Rates in [0, 1) on a fraction `density` of the off-diagonal entries,
// plus a cycle 0 -> 1 -> ... -> n-1 -> 0 that keeps the chain irreducible.
Matrix random_generator(std::size_t n, double density, rlb::sim::Rng& rng) {
  Matrix q = ref::random_matrix(n, n, density, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) q(i, j) = std::abs(q(i, j));
  for (std::size_t i = 0; i < n; ++i) q(i, (i + 1) % n) += 0.25;
  set_diagonal(q);
  return q;
}

void expect_gth_identical(const Matrix& q) {
  ref::expect_identical(mk::stationary_gth(q), ref::stationary_gth(q));
}

constexpr std::size_t kChainSizes[] = {1, 2, 3, 5, 37, 364};

TEST(GthStructured, DenseAndSparseChainsEqualDenseLoop) {
  rlb::sim::Rng rng(301);
  for (const std::size_t n : kChainSizes) {
    SCOPED_TRACE(n);
    expect_gth_identical(random_generator(n, 1.0, rng));
    expect_gth_identical(random_generator(n, 0.05, rng));
  }
}

TEST(GthStructured, BandedChainsEqualDenseLoop) {
  rlb::sim::Rng rng(302);
  for (const std::size_t n : kChainSizes) {
    SCOPED_TRACE(n);
    expect_gth_identical(ref::banded_generator(n, 1, rng));
    expect_gth_identical(ref::banded_generator(n, 4, rng));
  }
}

TEST(GthStructured, BorderedChainsEqualDenseLoop) {
  // State 0 reaches every state and every state returns to 0: a dense
  // row and a dense column around a banded chain.
  rlb::sim::Rng rng(303);
  for (const std::size_t n : kChainSizes) {
    SCOPED_TRACE(n);
    Matrix q = ref::banded_generator(n, 2, rng);
    for (std::size_t j = 1; j < n; ++j) q(0, j) = 0.5 + rng.next_double();
    for (std::size_t i = 1; i < n; ++i) q(i, 0) = 0.5 + rng.next_double();
    set_diagonal(q);
    expect_gth_identical(q);
  }
}

TEST(GthStructured, RowsStartingRightOfDiagonalEqualDenseLoop) {
  // Every third state only moves up: its row is zero left of the diagonal
  // until folding the states above it fills that part in. The top state
  // returns to 0, so the chain is irreducible.
  rlb::sim::Rng rng(304);
  for (const std::size_t n : kChainSizes) {
    SCOPED_TRACE(n);
    Matrix q(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n && j <= i + 3; ++j)
        q(i, j) = 0.5 + rng.next_double();
      if (i % 3 != 0 && i > 0) q(i, i - 1) = 0.5 + rng.next_double();
    }
    if (n > 1) q(n - 1, 0) = 1.0;
    set_diagonal(q);
    expect_gth_identical(q);
  }
}

TEST(GthStructured, ExactSqdChainEqualsDenseLoop) {
  // The exact truncated SQ(2) chain at N = 3, rho = 0.7, total cap 36.
  const auto chain =
      rlb::sqd::exact_truncated_chain(rlb::sqd::Params{3, 2, 0.7, 1.0}, 36);
  ASSERT_EQ(chain.size(), 1093u);
  expect_gth_identical(chain.generator);
}

TEST(GthStructured, DriftChainEqualsDenseLoop) {
  // drift_condition's A0 + A1 + A2 on the (N, T) = (12, 3) bound models.
  for (const auto kind :
       {rlb::sqd::BoundKind::Lower, rlb::sqd::BoundKind::Upper}) {
    const rlb::sqd::BoundModel model(rlb::sqd::Params{12, 2, 0.7, 1.0}, 3,
                                     kind);
    const auto q = rlb::sqd::build_bound_qbd(model);
    Matrix a = q.blocks.A0;
    a += q.blocks.A1;
    a += q.blocks.A2;
    expect_gth_identical(a);
  }
}

}  // namespace
