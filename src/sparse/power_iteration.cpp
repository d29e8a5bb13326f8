#include "src/sparse/power_iteration.hpp"

#include <cmath>
#include <string>

namespace mocos::sparse {

util::StatusOr<linalg::Vector> try_stationary_power_sparse(
    const SparseMatrix& p, std::size_t max_iterations, double tol) {
  const std::size_t n = p.rows();
  if (n == 0 || p.rows() != p.cols())
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_stationary_power_sparse: not square");
  linalg::Vector x(n, 1.0 / static_cast<double>(n));
  linalg::Vector next(n, 0.0);
  double change = 0.0;
  for (std::size_t it = 1; it <= max_iterations; ++it) {
    p.transpose_matvec(x, next);  // nextᵀ = xᵀ P
    double sum = 0.0;
    change = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      change += std::abs(next[i] - x[i]);
      sum += next[i];
    }
    if (!(sum > 0.0) || !std::isfinite(sum))
      return util::Status(util::StatusCode::kNotErgodic,
                          "sparse power iteration lost probability mass");
    for (std::size_t i = 0; i < n; ++i) x[i] = next[i] / sum;
    if (change < tol) return x;
  }
  return util::Status(
      util::StatusCode::kNotErgodic,
      "sparse power iteration did not reach a fixed point (residual " +
          std::to_string(change) + ")");
}

}  // namespace mocos::sparse
