#include "src/sparse/power_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/linalg/lu.hpp"
#include "src/markov/stationary.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::sparse {
namespace {

// Sparse ergodic ring-with-shortcuts chain: banded structure (bandwidth 2)
// plus the wraparound, strictly substochastic off-diagonal so the chain is
// irreducible and aperiodic.
markov::TransitionMatrix ring_chain(std::size_t n) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.4;
    m(i, (i + 1) % n) = 0.3;
    m(i, (i + n - 1) % n) = 0.2;
    m(i, (i + 2) % n) = 0.1;
  }
  return markov::TransitionMatrix(std::move(m));
}

TEST(StationaryPowerSparse, MatchesDenseStationary) {
  const std::size_t n = 40;
  const markov::TransitionMatrix p = ring_chain(n);
  const SparseMatrix sp = SparseMatrix::from_dense(p.matrix());
  const auto pi = try_stationary_power_sparse(sp);
  ASSERT_TRUE(pi.ok()) << pi.status().message();
  const linalg::Vector ref = markov::stationary_distribution(p);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*pi)[i], ref[i], 1e-10);
}

TEST(BandedResolventLu, MatchesDenseAnchoredSolve) {
  // ring_chain has wraparound entries; build a pure band instead: a lazy
  // random walk on a path.
  const std::size_t n = 30;
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool first = i == 0, last = i + 1 == n;
    m(i, i) = 0.5;
    if (!last) m(i, i + 1) = first ? 0.5 : 0.25;
    if (!first) m(i, i - 1) = last ? 0.5 : 0.25;
  }
  const markov::TransitionMatrix p(m);
  const SparseMatrix sp = SparseMatrix::from_dense(p.matrix());
  linalg::Vector c(n, 1.0 / static_cast<double>(n));
  auto lu = BandedResolventLu::try_factor(sp, c, 1);
  ASSERT_TRUE(lu.ok()) << lu.status().message();

  // Dense reference: B = I - P + e_{n-1} c^T.
  linalg::Matrix b = linalg::Matrix::identity(n) - p.matrix();
  for (std::size_t j = 0; j < n; ++j) b(n - 1, j) += c[j];

  util::Rng rng(41);
  for (int t = 0; t < 3; ++t) {
    linalg::Vector rhs(n);
    for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
    linalg::Vector x = rhs;
    lu->solve_inplace(x);
    const auto ref = linalg::try_solve(b, rhs);
    ASSERT_TRUE(ref.ok());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], (*ref)[i], 1e-10);
  }
}

TEST(BandedResolventLu, RejectsEntriesOutsideTheBand) {
  const markov::TransitionMatrix p = ring_chain(12);  // wraparound: |i-j| = 11
  const SparseMatrix sp = SparseMatrix::from_dense(p.matrix());
  linalg::Vector c(12, 1.0 / 12.0);
  const auto lu = BandedResolventLu::try_factor(sp, c, 2);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), util::StatusCode::kInvalidConfig);
}

}  // namespace
}  // namespace mocos::sparse
