#include "src/partition/block_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/linalg/guard.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/sparse/power_iteration.hpp"

namespace mocos::partition {

namespace {

/// Sherman–Morrison denominators below this are treated as a failed banded
/// solve (the anchored system sits too close to the 𝟙cᵀ null direction).
constexpr double kAnchorDenominatorFloor = 1e-8;

double inf_norm_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace

util::StatusOr<linalg::Matrix> try_sparse_resolvent(
    const sparse::SparseMatrix& p, const linalg::Vector& c,
    const SparseAnalysisConfig& config, const runtime::ExecutionContext& ctx,
    SparseSolveStats* stats) {
  SparseSolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || c.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_sparse_resolvent: need square P (n >= 2) and a "
                        "matching reference vector");

  // RCM ordering, the bandwidth cap, and the banded LU of the permuted B.
  std::vector<std::size_t> inv(n, 0);
  linalg::Vector c_perm(n);
  util::StatusOr<sparse::BandedResolventLu> lu =
      [&]() -> util::StatusOr<sparse::BandedResolventLu> {
    obs::ScopedPhase phase("sparse.factor");
    const std::vector<std::size_t> perm = bandwidth_ordering(p);
    const std::size_t bandwidth = pattern_bandwidth(p, perm);
    stats->bandwidth = bandwidth;
    const auto cap = static_cast<std::size_t>(
        config.bandwidth_cap_fraction * static_cast<double>(n));
    if (bandwidth > cap)
      return util::Status(util::StatusCode::kInvalidConfig,
                          "try_sparse_resolvent: bandwidth " +
                              std::to_string(bandwidth) + " exceeds the cap " +
                              std::to_string(cap));
    for (std::size_t a = 0; a < n; ++a) {
      inv[perm[a]] = a;
      c_perm[a] = c[perm[a]];
    }
    std::vector<sparse::Triplet> entries;
    entries.reserve(p.nnz());
    const auto& offsets = p.row_offsets();
    const auto& cols = p.col_indices();
    const auto& vals = p.values();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
        entries.push_back({inv[i], inv[cols[e]], vals[e]});
    return sparse::BandedResolventLu::try_factor(
        sparse::SparseMatrix::from_triplets(n, n, entries), c_perm, bandwidth);
  }();
  if (!lu.ok()) return lu.status();

  obs::ScopedPhase columns_phase("sparse.columns");
  // G = B⁻¹ − w(cᵀB⁻¹·)/denom with w = B⁻¹(𝟙 − e_{n−1}) and
  // denom = 1 + cᵀw; per column j, G e_j = g − w(cᵀg)/denom.
  linalg::Vector w(n, 1.0);
  w[n - 1] = 0.0;
  lu->solve_inplace(w);
  double denom = 1.0;
  for (std::size_t i = 0; i < n; ++i) denom += c_perm[i] * w[i];
  if (!std::isfinite(denom) || !(std::abs(denom) > kAnchorDenominatorFloor))
    return util::Status(util::StatusCode::kSingularMatrix,
                        "try_sparse_resolvent: Sherman-Morrison denominator " +
                            std::to_string(denom));
  // Columns go in blocks of kw: block q solves columns [kw·q, kw·q + kw)
  // and writes them as kw-wide row chunks of g_perm.
  constexpr std::size_t kw = sparse::BandedResolventLu::kBlockWidth;
  linalg::Matrix g_perm(n, n, 0.0);
  double* gp = g_perm.data();
  runtime::parallel_for(ctx, (n + kw - 1) / kw, [&](std::size_t q) {
    const std::size_t first = q * kw;
    const std::size_t cols_here = std::min(kw, n - first);
    std::vector<double> x;
    lu->solve_unit_block(first, x);
    double scale[kw] = {};
    for (std::size_t r = 0; r < cols_here; ++r) {
      double cg = 0.0;
      for (std::size_t i = 0; i < n; ++i) cg += c_perm[i] * x[i * kw + r];
      scale[r] = cg / denom;
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t r = 0; r < cols_here; ++r)
        gp[i * n + first + r] = x[i * kw + r] - scale[r] * w[i];
  });
  util::Status finite = util::check_finite(g_perm, "banded resolvent");
  if (!finite.is_ok()) return finite;
  linalg::Matrix g(n, n);
  double* gd = g.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = gp + inv[i] * n;
    for (std::size_t j = 0; j < n; ++j) gd[i * n + j] = src[inv[j]];
  }
  return g;
}

util::StatusOr<markov::ChainAnalysis> try_sparse_analyze_chain(
    const markov::TransitionMatrix& p, const SparseAnalysisConfig& config,
    const runtime::ExecutionContext& ctx, SparseSolveStats* stats) {
  SparseSolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SparseSolveStats{};
  const std::size_t n = p.size();
  const sparse::SparseMatrix sp = sparse::SparseMatrix::from_dense(p.matrix());
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));

  // Independent stationary estimate: a different algorithm than the
  // resolvent, so the agreement gate below is a genuine cross-check, not a
  // tautology.
  util::StatusOr<linalg::Vector> pi_check = [&] {
    obs::ScopedPhase phase("sparse.power_pi");
    return sparse::try_stationary_power_sparse(sp);
  }();
  if (!pi_check.ok()) return pi_check.status();

  util::StatusOr<linalg::Matrix> g = [&] {
    obs::ScopedPhase phase("sparse.resolvent");
    return try_sparse_resolvent(sp, c, config, ctx, stats);
  }();
  if (!g.ok()) return g.status();

  util::StatusOr<markov::ChainAnalysis> chain =
      markov::analysis_from_resolvent(p, *g);
  if (!chain.ok()) return chain.status();

  stats->pi_gap = inf_norm_diff(chain->pi, *pi_check);
  if (stats->pi_gap > config.pi_agreement_tol)
    return util::Status(
        util::StatusCode::kNotErgodic,
        "try_sparse_analyze_chain: resolvent and power-iteration stationary "
        "estimates disagree (gap " +
            std::to_string(stats->pi_gap) + " > " +
            std::to_string(config.pi_agreement_tol) + ")");
  return chain;
}

}  // namespace mocos::partition
