#pragma once

#include <cstddef>

#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/partition/bandwidth_ordering.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/sparse/sparse_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::partition {

/// Tuning knobs for the sparse chain analysis (banded resolvent + power
/// iteration cross-check). Defaults satisfy the acceptance contract: π/Z
/// agreement with the dense pipeline to <= 1e-8.
struct SparseAnalysisConfig {
  /// The two independent stationary estimates (resolvent column sums vs
  /// sparse power iteration) must agree to this ∞-norm gap or the whole
  /// sparse analysis is rejected in favor of the dense pipeline.
  double pi_agreement_tol = 1e-8;
  /// The banded solve only runs when the RCM bandwidth b satisfies
  /// b <= n * bandwidth_cap_fraction; beyond that O(n·b²) is no cheaper
  /// than the dense O(n³) factorization the caller falls back to.
  double bandwidth_cap_fraction = 1.0 / 3.0;
};

/// Diagnostics of one sparse analysis, filled in best-effort even on
/// failure (tests and the metrics exporter read these).
struct SparseSolveStats {
  std::size_t bandwidth = 0;  // RCM bandwidth of the pattern
  double pi_gap = 0.0;        // ‖π_G − π_power‖∞ cross-check gap
};

/// Sparse resolvent G = (I − P + 𝟙cᵀ)⁻¹: RCM reordering, banded LU of the
/// anchored system B = I − P + e_{n−1}cᵀ, then one Sherman–Morrison
/// correction. Columns fan out over `ctx` into index-addressed slots
/// (bit-identical for any --jobs). Returns a non-ok status — and the caller
/// factors the resolvent densely — when the bandwidth exceeds the cap
/// (kInvalidConfig), the factorization or the correction breaks down
/// (kSingularMatrix), or G is not finite (kNonFiniteValue).
[[nodiscard]] util::StatusOr<linalg::Matrix> try_sparse_resolvent(
    const sparse::SparseMatrix& p, const linalg::Vector& c,
    const SparseAnalysisConfig& config = {},
    const runtime::ExecutionContext& ctx = {},
    SparseSolveStats* stats = nullptr);

/// Sparsity-aware replacement for markov::try_analyze_chain: computes G
/// through try_sparse_resolvent, derives {π, Z} from it with
/// markov::analysis_from_resolvent (the derivation ChainSolveCache uses),
/// and cross-checks π against an independent sparse power iteration to
/// config.pi_agreement_tol. Any failure — a non-converging power iteration,
/// a failed resolvent or a cross-check disagreement — returns a Status so
/// the caller can fall back to the dense pipeline.
[[nodiscard]] util::StatusOr<markov::ChainAnalysis> try_sparse_analyze_chain(
    const markov::TransitionMatrix& p, const SparseAnalysisConfig& config = {},
    const runtime::ExecutionContext& ctx = {},
    SparseSolveStats* stats = nullptr);

}  // namespace mocos::partition
