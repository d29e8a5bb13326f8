#include "src/markov/fundamental.hpp"

#include <utility>

#include "src/linalg/lu.hpp"
#include "src/markov/sparse_mode.hpp"
#include "src/markov/stationary.hpp"
#include "src/obs/metrics.hpp"
#include "src/partition/block_solver.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::markov {

namespace {

linalg::Matrix fundamental_system(const linalg::Matrix& p,
                                  const linalg::Vector& pi) {
  const std::size_t n = p.rows();
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = (i == j ? 1.0 : 0.0) - p(i, j) + pi[j];
  return m;
}

}  // namespace

linalg::Matrix stationary_rows(const linalg::Vector& pi) {
  return linalg::Matrix::outer(linalg::Vector(pi.size(), 1.0), pi);
}

linalg::Matrix fundamental_matrix(const linalg::Matrix& p,
                                  const linalg::Vector& pi) {
  return linalg::inverse(fundamental_system(p, pi));
}

util::StatusOr<linalg::Matrix> try_fundamental_matrix(
    const linalg::Matrix& p, const linalg::Vector& pi) {
  if (pi.size() != p.rows() || !p.is_square())
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_fundamental_matrix: size mismatch");
  util::StatusOr<linalg::LuDecomposition> lu =
      linalg::LuDecomposition::try_factor(fundamental_system(p, pi));
  if (!lu.ok()) return lu.status();
  linalg::Matrix z = lu->inverse();
  util::Status finite = util::check_finite(z, "Z");
  if (!finite.is_ok()) return finite;
  return z;
}

ChainAnalysis analyze_chain(const TransitionMatrix& p) {
  linalg::Vector pi = stationary_distribution(p);
  linalg::Matrix z = fundamental_matrix(p.matrix(), pi);
  return ChainAnalysis{p, std::move(pi), std::move(z)};
}

util::StatusOr<ChainAnalysis> try_analyze_chain(const TransitionMatrix& p,
                                                StationarySolver solver) {
  util::Status input = util::check_row_stochastic(p.matrix());
  if (!input.is_ok()) return input;

  // Sparsity-aware path (banded resolvent + power-iteration cross-check).
  // Only the primary solver selection dispatches here — a caller already
  // demoted to the power-iteration rung is recovering from a failure and
  // should get the plain dense pipeline. Any sparse failure falls through
  // to dense, so this dispatch never introduces a new failure mode.
  if (solver == StationarySolver::kDirect && sparse_path_enabled(p.matrix())) {
    partition::SparseSolveStats sparse_stats;
    util::StatusOr<ChainAnalysis> sparse_result =
        partition::try_sparse_analyze_chain(p, {}, {}, &sparse_stats);
    if (sparse_result.ok()) {
      obs::count("markov.sparse.solves");
      obs::gauge_set("markov.sparse.bandwidth",
                     static_cast<double>(sparse_stats.bandwidth));
      obs::gauge_set("markov.sparse.pi_gap", sparse_stats.pi_gap);
      return sparse_result;
    }
    obs::count("markov.sparse.fallbacks");
  }

  util::StatusOr<linalg::Vector> pi = try_stationary_distribution(p, solver);
  if (!pi.ok()) return pi.status();

  util::StatusOr<linalg::Matrix> z =
      try_fundamental_matrix(p.matrix(), *pi);
  if (!z.ok()) return z.status();

  // A transient state (π_i = 0) still leaves I − P + W invertible; reject
  // it here, where the cost terms would otherwise divide by π.
  util::Status positive = util::check_strictly_positive(*pi, "pi");
  if (!positive.is_ok()) return positive;

  return ChainAnalysis{p, std::move(*pi), std::move(*z)};
}

util::StatusOr<ChainAnalysis> analysis_from_resolvent(
    const TransitionMatrix& p, const linalg::Matrix& g) {
  const std::size_t n = g.rows();
  const double c = 1.0 / static_cast<double>(n);

  linalg::Vector pi(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) pi[j] += g(i, j);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    pi[j] *= c;
    sum += pi[j];
  }
  util::Status finite = util::check_finite(pi, "resolvent pi");
  if (!finite.is_ok()) return finite;
  util::Status positive = util::check_strictly_positive(pi, "resolvent pi");
  if (!positive.is_ok()) return positive;
  for (std::size_t j = 0; j < n; ++j) pi[j] /= sum;

  const linalg::Vector pi_g = linalg::mul(pi, g);
  linalg::Matrix z(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) z(i, j) = g(i, j) - pi_g[j] + pi[j];
  util::Status z_finite = util::check_finite(z, "Z");
  if (!z_finite.is_ok()) return z_finite;
  return ChainAnalysis{p, std::move(pi), std::move(z)};
}

}  // namespace mocos::markov
