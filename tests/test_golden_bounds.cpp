// Golden pins for the finite-N bounds: Fig. 10's four panels at
// rho in {0.05, 0.7, 0.9}, plus (N, T) = (8, 4) at rho = 0.7, and the exact
// N = 3 chain. The values were printed with %.17g from the dense solver
// loops (before any zero-skipping), so they are the fixed point that any
// later change to the QBD solves is judged against: values must agree to
// 1e-13 relative, logarithmic-reduction iteration counts exactly.
#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "qbd/solver.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

constexpr double kRtol = 1e-13;
constexpr double kUnstable = -1.0;  ///< the upper model's drift fails

struct GoldenCell {
  int n, t;
  double rho;
  double thm3_lower;   ///< solve_lower_improved (scalar rate rho^N)
  double thm1_lower;   ///< solve_bound on the lower model
  int lower_iters;     ///< its logarithmic-reduction iterations
  double thm1_upper;   ///< solve_bound on the upper model, or kUnstable
  int upper_iters;
};

constexpr GoldenCell kCells[] = {
    {3, 2, 0.05, 1.0036146645116593, 1.0036146645116593, 3,
     1.0036203138236979, 3},
    {3, 2, 0.70, 1.7529005599269105, 1.7529005599269105, 5,
     3.3272705209803757, 7},
    {3, 2, 0.90, 3.959987678931201, 3.9599876789311961, 7, kUnstable, 0},
    {3, 3, 0.05, 1.0036197941700864, 1.0036197941700864, 3,
     1.0036197995589167, 3},
    {3, 3, 0.70, 1.8433768703257996, 1.843376868701244, 5,
     2.0326892670731906, 6},
    {3, 3, 0.90, 4.1135001368436397, 4.1135001346133695, 7,
     14.82657734681719, 9},
    {6, 3, 0.05, 1.00295662656287, 1.00295662656287, 2, 1.0029566267653676,
     3},
    {6, 3, 0.70, 1.6641539796760667, 1.6641539796800144, 5,
     2.0189302208610065, 6},
    {6, 3, 0.90, 2.896634394471616, 2.8966343945060906, 6, kUnstable, 0},
    {12, 3, 0.05, 1.0027090793727162, 1.0027090793727162, 2,
     1.0027090793875528, 3},
    {12, 3, 0.70, 1.6135281173223899, 1.6135281173223905, 4,
     2.3963279904974431, 6},
    {12, 3, 0.90, 2.3634981639814026, 2.3634981639814061, 5, kUnstable, 0},
    {8, 4, 0.70, 1.6850808180344823, 1.6850808180350787, 4,
     1.7158332424609222, 5},
};

void PrintTo(const GoldenCell& c, std::ostream* os) {
  *os << "(N, T) = (" << c.n << ", " << c.t << "), rho = " << c.rho;
}

class GoldenBounds : public testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenBounds, MatchPinnedValues) {
  const GoldenCell& c = GetParam();
  const Params p{c.n, 2, c.rho, 1.0};
  const BoundModel lower(p, c.t, BoundKind::Lower);

  EXPECT_NEAR(rlb::sqd::solve_lower_improved(lower).mean_delay, c.thm3_lower,
              kRtol * c.thm3_lower);

  const auto generic = rlb::sqd::solve_bound(lower);
  EXPECT_NEAR(generic.mean_delay, c.thm1_lower, kRtol * c.thm1_lower);
  EXPECT_EQ(generic.logred_iterations, c.lower_iters);

  const BoundModel upper_model(p, c.t, BoundKind::Upper);
  if (c.thm1_upper == kUnstable) {
    EXPECT_THROW(rlb::sqd::solve_bound(upper_model),
                 rlb::qbd::UnstableError);
    return;
  }
  const auto upper = rlb::sqd::solve_bound(upper_model);
  EXPECT_NEAR(upper.mean_delay, c.thm1_upper, kRtol * c.thm1_upper);
  EXPECT_EQ(upper.logred_iterations, c.upper_iters);
}

INSTANTIATE_TEST_SUITE_P(
    Fig10AndN8T4, GoldenBounds, testing::ValuesIn(kCells),
    [](const testing::TestParamInfo<GoldenCell>& info) {
      const GoldenCell& c = info.param;
      return "N" + std::to_string(c.n) + "T" + std::to_string(c.t) + "rho" +
             std::to_string(static_cast<int>(std::lround(c.rho * 100)));
    });

TEST(GoldenExact, N3Cap36MeanDelay) {
  const auto exact = rlb::sqd::solve_exact_truncated(Params{3, 2, 0.7, 1.0},
                                                     36);
  EXPECT_EQ(exact.states, 1093u);
  const double want = 1.8847267591422652;
  EXPECT_NEAR(exact.mean_delay, want, kRtol * want);
}

}  // namespace
