#pragma once

#include <cstddef>

#include "src/linalg/matrix.hpp"
#include "src/sparse/sparse_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::sparse {

/// Power iteration for πᵀP = πᵀ on a sparse chain, O(nnz) per sweep — the
/// independent π estimate the sparse chain analysis cross-checks the
/// resolvent against. Deterministic: a fixed sequence of transposed matvecs
/// and sums. Returns kNotErgodic when the fixed-point residual ‖πP − π‖₁
/// does not reach `tol` within `max_iterations` sweeps (periodic or slowly
/// mixing chains) or when the iterate loses all its mass.
[[nodiscard]] util::StatusOr<linalg::Vector> try_stationary_power_sparse(
    const SparseMatrix& p, std::size_t max_iterations = 20000,
    double tol = 1e-12);

}  // namespace mocos::sparse
