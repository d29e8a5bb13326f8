#include "src/markov/incremental.hpp"

#include <utility>

#include "src/linalg/guard.hpp"
#include "src/linalg/lu.hpp"
#include "src/markov/sparse_mode.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/partition/block_solver.hpp"
#include "src/sparse/sparse_matrix.hpp"

namespace mocos::markov {

namespace {

/// Resolvent system I − P + 𝟙cᵀ with the fixed reference vector c = 𝟙/M.
linalg::Matrix resolvent_system(const linalg::Matrix& p) {
  const std::size_t n = p.rows();
  const double c = 1.0 / static_cast<double>(n);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = (i == j ? 1.0 : 0.0) - p(i, j) + c;
  return m;
}

/// Banded-backend G, or nullopt when the banded solve fails (the caller
/// then factors densely — never a new failure mode).
std::optional<linalg::Matrix> sparse_resolvent(const linalg::Matrix& p) {
  const std::size_t n = p.rows();
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));
  util::StatusOr<linalg::Matrix> g = partition::try_sparse_resolvent(
      sparse::SparseMatrix::from_dense(p), c);
  if (g.ok()) return std::move(*g);
  if (obs::trace_active()) {
    obs::trace_instant("chain_cache.fallback", "markov",
                       obs::TraceArgs().str("kind", "sparse-reset"));
  }
  return std::nullopt;
}

bool same_entries(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const double* x = a.data();
  const double* y = b.data();
  for (std::size_t k = 0; k < a.rows() * a.cols(); ++k)
    if (x[k] != y[k]) return false;
  return true;
}

}  // namespace

util::Status ChainSolveCache::reset(const TransitionMatrix& p) {
  obs::ScopedPhase phase("chain.full_solve");
  analysis_.reset();
  const linalg::Matrix& m = p.matrix();
  util::Status input = util::check_row_stochastic(m);
  if (!input.is_ok()) return input;

  std::optional<linalg::Matrix> g;
  bool sparse_built = false;
  {
    obs::ScopedPhase resolvent_phase("chain.resolvent");
    if (sparse_path_enabled(m)) g = sparse_resolvent(m);
    sparse_built = g.has_value();
    if (!sparse_built) {
      util::StatusOr<linalg::LuDecomposition> lu =
          linalg::LuDecomposition::try_factor(resolvent_system(m));
      if (!lu.ok()) return lu.status();
      g = lu->inverse();
      util::Status finite = util::check_finite(*g, "resolvent G");
      if (!finite.is_ok()) return finite;
    }
  }

  util::StatusOr<ChainAnalysis> chain = [&] {
    obs::ScopedPhase derive_phase("chain.derive");
    return analysis_from_resolvent(p, *g);
  }();
  if (!chain.ok()) return chain.status();
  analysis_ = std::move(*chain);
  ++stats_.full_solves;
  if (sparse_built) ++stats_.sparse_full_solves;
  return util::Status::ok();
}

util::Status ChainSolveCache::update(const TransitionMatrix& p) {
  if (has_state() && same_entries(p.matrix(), analysis_->p.matrix())) {
    ++stats_.exact_hits;
    return util::Status::ok();
  }
  return reset(p);
}

}  // namespace mocos::markov
