// Grassmann–Taksar–Heyman (GTH) stationary solver.
//
// GTH computes the stationary distribution of an irreducible CTMC generator
// (or DTMC transition matrix) using only additions of nonnegative numbers,
// which makes it backward stable — the right tool for the drift-condition
// chain pi*A = 0 of Neuts' Theorem 1.7.1 and for exact reference solutions.
#pragma once

#include "linalg/matrix.h"

namespace rlb::markov {

/// Stationary distribution of an irreducible CTMC generator (rows sum to 0).
/// Folding state k touches only row k's nonzero span left of the diagonal
/// and the rows from column k's top nonzero down; the column tops are
/// tracked through fill. For a finite generator the skipped updates would
/// all add exact zeros, so the result is bit-identical to the dense GTH
/// loop in tests/linalg_reference.h: every nonzero entry is equal, and only
/// the sign of an exact zero may differ.
linalg::Vector stationary_gth(const linalg::Matrix& generator);

/// Stationary distribution of an irreducible DTMC stochastic matrix
/// (rows sum to 1); implemented via the generator P - I.
linalg::Vector stationary_gth_dtmc(const linalg::Matrix& transition);

}  // namespace rlb::markov
