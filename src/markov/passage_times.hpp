#pragma once

#include "src/linalg/matrix.hpp"

namespace mocos::markov {

/// Expected first passage times R_ij = E[steps to first reach j from i],
/// with R_ii the mean return time 1/π_i.
///
/// Computed from the fundamental matrix (Eq. 8):
///   R_ij = (δ_ij - z_ij + z_jj) / π_j.
/// (The paper prints /π_i, but D = diag(1/π) RIGHT-multiplies in Eq. 6, so
/// the divisor is the destination's stationary mass — this also is the only
/// reading under which R_ii = 1/π_i.)
[[nodiscard]] linalg::Matrix first_passage_times(const linalg::Matrix& z,
                                                 const linalg::Vector& pi);

/// Independent cross-check used by tests: solves, for each destination j,
/// the linear one-step system  R_ij = 1 + Σ_{k≠j} p_ik R_kj  (i ≠ j) and
/// R_jj = 1 + Σ_{k≠j} p_jk R_kj.
[[nodiscard]] linalg::Matrix first_passage_times_by_solve(
    const linalg::Matrix& p);

}  // namespace mocos::markov
