#pragma once

#include "src/linalg/matrix.hpp"
#include "src/markov/stationary.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// Kemeny–Snell fundamental matrix Z = (I - P + W)^(-1), where W = 𝟙πᵀ
/// (every row equals the stationary distribution). The paper uses Z (via the
/// group inverse A# = Z - W, Eq. 7) to express first passage times (Eq. 8)
/// and the chain sensitivities (§IV, following Schweitzer).
[[nodiscard]] linalg::Matrix fundamental_matrix(const linalg::Matrix& p,
                                                const linalg::Vector& pi);

/// Non-throwing variant: kSingularMatrix (with the LU pivot diagnostics in
/// the message) when I - P + W cannot be inverted, kNonFiniteValue when the
/// inverse contains NaN/inf.
[[nodiscard]] util::StatusOr<linalg::Matrix> try_fundamental_matrix(
    const linalg::Matrix& p, const linalg::Vector& pi);

/// W = 𝟙πᵀ.
[[nodiscard]] linalg::Matrix stationary_rows(const linalg::Vector& pi);

/// One-stop analysis of an ergodic chain: everything the cost function and
/// its gradient read, computed once per probe. W = stationary_rows(pi) and
/// R = first_passage_times(z, pi) (Eq. 8) are derived on demand by the few
/// readers that need them.
struct ChainAnalysis {
  TransitionMatrix p;
  linalg::Vector pi;   // stationary distribution
  linalg::Matrix z;    // fundamental matrix
};

[[nodiscard]] ChainAnalysis analyze_chain(const TransitionMatrix& p);

/// Non-throwing chain analysis — the entry point the descent recovery ladder
/// uses. Runs the selected stationary solver, then the fundamental-matrix
/// inversion and passage times, validating each stage; the first failure is
/// returned as a structured Status instead of an exception or NaN-laden
/// result.
[[nodiscard]] util::StatusOr<ChainAnalysis> try_analyze_chain(
    const TransitionMatrix& p,
    StationarySolver solver = StationarySolver::kDirect);

/// {π, Z} of `p` from its resolvent G = (I − P + 𝟙cᵀ)⁻¹, c = 𝟙/M, however G
/// was computed (dense LU or the banded backend):
///
///   πᵀ = cᵀG, renormalized   (Eq. 5; G𝟙 = 𝟙 makes the mass 1 up to round-off)
///   A# = G − 𝟙(πᵀG)          (group inverse of I − P, Eq. 7)
///   Z  = A# + 𝟙πᵀ            (fundamental matrix, Eq. 6)
///
/// kNonFiniteValue / kNotErgodic when π is non-finite or not strictly
/// positive, kNonFiniteValue when Z is not finite.
[[nodiscard]] util::StatusOr<ChainAnalysis> analysis_from_resolvent(
    const TransitionMatrix& p, const linalg::Matrix& g);

}  // namespace mocos::markov
