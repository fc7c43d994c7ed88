#include "markov/gth.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/require.h"

namespace rlb::markov {

linalg::Vector stationary_gth(const linalg::Matrix& generator) {
  RLB_REQUIRE(generator.rows() == generator.cols(), "GTH needs square input");
  const std::size_t n = generator.rows();
  RLB_REQUIRE(n > 0, "GTH on empty chain");
  linalg::Matrix q = generator;  // working copy; diagonal is never read

  // top[j]: no row above it holds a nonzero in column j. Starts at the
  // input's first nonzero row and moves up as folds fill the column.
  std::vector<std::size_t> top(n, n);
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t j = 0; j < n; ++j)
      if (q(i, j) != 0.0) top[j] = i;

  // Elimination: fold state k into states 0..k-1. Only row k's nonzero
  // span [lo, hi) below the diagonal and the rows from column k's top down
  // take part; every skipped update would add an exact zero.
  for (std::size_t k = n - 1; k >= 1; --k) {
    std::size_t lo = 0;
    while (lo < k && q(k, lo) == 0.0) ++lo;
    std::size_t hi = k;
    while (hi > lo && q(k, hi - 1) == 0.0) --hi;
    double s = 0.0;
    for (std::size_t j = lo; j < hi; ++j) s += q(k, j);
    if (s <= 0.0)
      throw std::runtime_error("stationary_gth: chain is not irreducible");
    const std::size_t first = std::min(top[k], k);
    for (std::size_t i = first; i < k; ++i) q(i, k) /= s;
    std::size_t filled = k;  // first row that takes an update
    for (std::size_t i = first; i < k; ++i) {
      const double f = q(i, k);
      if (f == 0.0) continue;
      filled = std::min(filled, i);
      for (std::size_t j = lo; j < hi; ++j) q(i, j) += f * q(k, j);
    }
    for (std::size_t j = lo; j < hi; ++j) top[j] = std::min(top[j], filled);
  }

  // Back substitution. Column k is final once state k is folded: later
  // folds touch columns left of k only.
  linalg::Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double s = 0.0;
    for (std::size_t i = std::min(top[k], k); i < k; ++i)
      s += pi[i] * q(i, k);
    pi[k] = s;
  }
  double total = 0.0;
  for (double v : pi) total += v;
  for (double& v : pi) v /= total;
  return pi;
}

linalg::Vector stationary_gth_dtmc(const linalg::Matrix& transition) {
  linalg::Matrix q = transition;
  for (std::size_t i = 0; i < q.rows(); ++i) q(i, i) -= 1.0;
  return stationary_gth(q);
}

}  // namespace rlb::markov
