// Property-based invariant harness for the Markov solver layer.
//
// A seeded generator (Rng::stream, so chain k is reproducible in isolation)
// produces hundreds of random ergodic chains of varying size; every chain
// must satisfy the paper's Eqs. 5–8 identities, and the resolvent route of
// ChainSolveCache must agree with the full solve to 1e-10 — after a reset
// and along randomized probe sequences. The cache's memo contract (exact
// hits, one full solve per changed matrix, no stale state after a failed
// solve) is pinned here too.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "gtest/gtest.h"
#include "src/core/optimizer.hpp"
#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/group_inverse.hpp"
#include "src/markov/incremental.hpp"
#include "src/markov/passage_times.hpp"
#include "src/util/fault_injection.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

constexpr std::size_t kNumChains = 240;  // >= 200 per the harness contract
constexpr double kAgreementTol = 1e-10;

/// Chain k of the harness: size in [2, 10], strictly positive entries.
/// Derived via Rng::stream so any failing index reproduces standalone.
markov::TransitionMatrix generated_chain(std::uint64_t k) {
  const util::Rng root(20260806);
  util::Rng rng = root.stream(k);
  const std::size_t n = 2 + rng.index(9);
  return test::random_positive_chain(n, rng, /*floor=*/0.01);
}

/// A probe row: the current row pulled toward a fresh random probability
/// vector; stays a probability vector by construction.
linalg::Vector perturbed_row(const linalg::Matrix& p, std::size_t i,
                             util::Rng& rng) {
  const std::size_t n = p.rows();
  linalg::Vector target(n);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    target[j] = 0.01 + rng.uniform();
    sum += target[j];
  }
  const double eps = rng.uniform(0.05, 0.5);
  linalg::Vector row(n);
  for (std::size_t j = 0; j < n; ++j)
    row[j] = (1.0 - eps) * p(i, j) + eps * target[j] / sum;
  return row;
}

double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Worst entry difference between a cached analysis and a full solve, over
/// π, Z and the passage times R derived from them.
double analysis_diff(const markov::ChainAnalysis& a,
                     const markov::ChainAnalysis& b) {
  double worst = max_abs_diff(a.pi, b.pi);
  worst = std::max(worst, max_abs_diff(a.z, b.z));
  worst = std::max(worst,
                   max_abs_diff(markov::first_passage_times(a.z, a.pi),
                                markov::first_passage_times(b.z, b.pi)));
  return worst;
}

TEST(ChainProperties, GeneratedChainsSatisfyPaperIdentities) {
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    const markov::TransitionMatrix p = generated_chain(k);
    const std::size_t n = p.size();
    const auto chain = markov::try_analyze_chain(p);
    ASSERT_TRUE(chain.ok()) << chain.status().to_string();

    // Σπ_i = 1 and π strictly positive.
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GT(chain->pi[i], 0.0);
      mass += chain->pi[i];
    }
    EXPECT_NEAR(mass, 1.0, 1e-12);

    // πP = π (stationarity, Eq. 5).
    const linalg::Vector pi_p = linalg::mul(chain->pi, p.matrix());
    EXPECT_LE(max_abs_diff(pi_p, chain->pi), 1e-10);

    // R_ii = 1/π_i (mean return times, Eq. 8).
    const linalg::Matrix r = markov::first_passage_times(chain->z, chain->pi);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(r(i, i) * chain->pi[i], 1.0, 1e-9);

    // ZA = AZ with A = I − P: Z commutes with the generator it inverts.
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        a(i, j) = (i == j ? 1.0 : 0.0) - p(i, j);
    EXPECT_LE(max_abs_diff(chain->z * a, a * chain->z), 1e-9);
  }
}

TEST(ChainProperties, CachedResolventMatchesFullAnalysis) {
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    const markov::TransitionMatrix p = generated_chain(k);
    markov::ChainSolveCache cache;
    ASSERT_TRUE(cache.reset(p).is_ok());
    const auto full = markov::try_analyze_chain(p);
    ASSERT_TRUE(full.ok());
    EXPECT_LE(analysis_diff(cache.analysis(), *full), kAgreementTol);

    // The group inverse A# = Z − W (Eq. 7) of the cached analysis satisfies
    // Meyer's axioms for A = I − P: A·A#·A = A, A#·A·A# = A#, A·A# = A#·A.
    const std::size_t n = p.size();
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        a(i, j) = (i == j ? 1.0 : 0.0) - p(i, j);
    const markov::ChainAnalysis& cached = cache.analysis();
    const linalg::Matrix a_sharp =
        cached.z - markov::stationary_rows(cached.pi);
    EXPECT_TRUE(markov::satisfies_group_inverse_axioms(a, a_sharp, 1e-8));
  }
}

TEST(ChainProperties, IncrementalAgreesWithFullAfterRandomUpdateSequences) {
  const util::Rng root(77);
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    const markov::TransitionMatrix start = generated_chain(k);
    const std::size_t n = start.size();
    markov::ChainSolveCache cache;
    ASSERT_TRUE(cache.reset(start).is_ok());

    util::Rng rng = root.stream(k);
    linalg::Matrix p = start.matrix();
    const std::size_t updates = 8 + rng.index(12);
    for (std::size_t u = 0; u < updates; ++u) {
      const std::size_t i = rng.index(n);
      const linalg::Vector row = perturbed_row(p, i, rng);
      for (std::size_t j = 0; j < n; ++j) p(i, j) = row[j];
      ASSERT_TRUE(cache.update(markov::TransitionMatrix(p)).is_ok())
          << "update " << u << " row " << i;

      const auto full =
          markov::try_analyze_chain(markov::TransitionMatrix(p));
      ASSERT_TRUE(full.ok());
      EXPECT_LE(analysis_diff(cache.analysis(), *full), kAgreementTol)
          << "update " << u;
    }
    EXPECT_EQ(cache.stats().full_solves, updates + 1);
  }
}

TEST(ChainProperties, UpdateOfCachedMatrixIsExactHit) {
  const markov::TransitionMatrix p = test::chain3();
  markov::ChainSolveCache cache;
  ASSERT_TRUE(cache.reset(p).is_ok());
  const markov::ChainAnalysis before = cache.analysis();

  for (int probe = 0; probe < 3; ++probe)
    ASSERT_TRUE(cache.update(markov::TransitionMatrix(p.matrix())).is_ok());
  EXPECT_EQ(cache.stats().full_solves, 1u);
  EXPECT_EQ(cache.stats().exact_hits, 3u);
  EXPECT_EQ(cache.stats().incremental_row_updates, 0u);
  EXPECT_EQ(analysis_diff(cache.analysis(), before), 0.0);
}

TEST(ChainProperties, ChangedRowTriggersOneFullSolve) {
  const markov::TransitionMatrix start = test::chain3();
  markov::ChainSolveCache cache;
  ASSERT_TRUE(cache.update(start).is_ok());  // empty cache: a full solve
  ASSERT_EQ(cache.stats().full_solves, 1u);

  // Any changed row (here one entry pair of row 1) is a miss: one full solve
  // whose result is exactly what a fresh cache computes for that matrix.
  linalg::Matrix m = start.matrix();
  m(1, 0) = 0.2;
  m(1, 1) = 0.5;
  const markov::TransitionMatrix one_row(m);
  ASSERT_TRUE(cache.update(one_row).is_ok());
  EXPECT_EQ(cache.stats().full_solves, 2u);
  EXPECT_EQ(cache.stats().exact_hits, 0u);
  EXPECT_EQ(cache.stats().incremental_row_updates, 0u);

  markov::ChainSolveCache fresh;
  ASSERT_TRUE(fresh.reset(one_row).is_ok());
  EXPECT_EQ(analysis_diff(cache.analysis(), fresh.analysis()), 0.0);
  const auto full = markov::try_analyze_chain(one_row);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(analysis_diff(cache.analysis(), *full), kAgreementTol);
}

TEST(ChainProperties, FailedResetClearsStateAndNextUpdateSolves) {
  const markov::TransitionMatrix p = test::chain3();
  markov::ChainSolveCache cache;
  ASSERT_TRUE(cache.reset(p).is_ok());
  {
    // The resolvent factorization fails once: the cache must not keep the
    // previous analysis around as if it were current.
    util::fault::ScopedFault fault(util::fault::Site::kLuFactor,
                                   /*fire_at=*/0, /*count=*/1);
    EXPECT_FALSE(cache.reset(p).is_ok());
  }
  EXPECT_FALSE(cache.has_state());
  EXPECT_EQ(cache.stats().full_solves, 1u);

  // The same matrix again is not a hit: it solves from scratch.
  ASSERT_TRUE(cache.update(p).is_ok());
  EXPECT_EQ(cache.stats().full_solves, 2u);
  EXPECT_EQ(cache.stats().exact_hits, 0u);

  // A chain with two closed classes fails the same way through update().
  const markov::TransitionMatrix reducible(linalg::Matrix{
      {1.0, 0.0, 0.0}, {0.0, 0.5, 0.5}, {0.0, 0.5, 0.5}});
  EXPECT_FALSE(cache.update(reducible).is_ok());
  EXPECT_FALSE(cache.has_state());
  ASSERT_TRUE(cache.update(p).is_ok());
  EXPECT_EQ(cache.stats().full_solves, 3u);
  const auto full = markov::try_analyze_chain(p);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(analysis_diff(cache.analysis(), *full), kAgreementTol);
}

TEST(ChainProperties, OptimizationOutcomeExportsCacheStats) {
  // The descent drivers have always collected ChainSolveCache::Stats; the
  // outcome now carries them across the descent boundary instead of
  // dropping them. An adaptive run both solves (every probe is a new matrix)
  // and re-probes the cached iterate (the gradient analysis of a
  // just-accepted line-search candidate), so both counters must be visible
  // on the outcome.
  const core::Problem problem = test::paper_problem(1, 0.0, 1.0);
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 50;
  const core::OptimizationOutcome outcome =
      core::CoverageOptimizer(problem, opts).run();
  EXPECT_GT(outcome.chain_stats.full_solves, 0u);
  EXPECT_GT(outcome.chain_stats.exact_hits, 0u);

  // Accumulation across phases: Stats::add sums every counter.
  markov::ChainSolveCache::Stats sum = outcome.chain_stats;
  sum.add(outcome.chain_stats);
  EXPECT_EQ(sum.full_solves, 2 * outcome.chain_stats.full_solves);
  EXPECT_EQ(sum.exact_hits, 2 * outcome.chain_stats.exact_hits);
}

TEST(ChainProperties, ResetRejectsNonErgodicChain) {
  // Two closed classes: the resolvent system is singular and the cache must
  // report a structured failure, not NaN.
  linalg::Matrix m{{0.5, 0.5, 0.0, 0.0},
                   {0.5, 0.5, 0.0, 0.0},
                   {0.0, 0.0, 0.5, 0.5},
                   {0.0, 0.0, 0.5, 0.5}};
  markov::ChainSolveCache cache;
  const util::Status status = cache.reset(markov::TransitionMatrix(m));
  EXPECT_FALSE(status.is_ok());
  EXPECT_TRUE(util::is_numerical_failure(status.code()));
  EXPECT_FALSE(cache.has_state());
}

}  // namespace
}  // namespace mocos
