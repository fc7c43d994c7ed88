// Exact reference solution of the ORIGINAL SQ(d) process on a truncated
// state space, for small N. Arrivals are blocked once the system holds
// `total_cap` jobs; the reported truncation mass bounds the error. Used to
// validate that the computed bounds actually sandwich the true system.
#pragma once

#include <cstddef>

#include "markov/ctmc.h"
#include "sqd/params.h"

namespace rlb::sqd {

struct ExactResult {
  double mean_waiting_jobs = 0.0;
  double mean_jobs = 0.0;
  double mean_waiting_time = 0.0;  ///< via Little with lambda*N
  double mean_delay = 0.0;
  double truncation_mass = 0.0;  ///< stationary P(total jobs = cap)
  std::size_t states = 0;
};

/// The truncated chain itself: every state reachable from the empty
/// system, arrivals blocked at `total_cap` jobs.
markov::Ctmc exact_truncated_chain(const Params& p, int total_cap);

/// Solve the truncated chain exactly (GTH). Cost grows quickly with N and
/// cap; intended for N <= 4.
ExactResult solve_exact_truncated(const Params& p, int total_cap);

}  // namespace rlb::sqd
