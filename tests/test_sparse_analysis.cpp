#include "src/partition/block_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/optimizer.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/linalg/norms.hpp"
#include "src/markov/incremental.hpp"
#include "src/markov/passage_times.hpp"
#include "src/markov/sparse_mode.hpp"
#include "src/markov/stationary.hpp"
#include "src/obs/metrics.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

/// Restores kAuto on scope exit so a failing test cannot leak a forced mode
/// into the rest of the suite.
struct ScopedSparseMode {
  explicit ScopedSparseMode(markov::SparseMode mode) {
    markov::force_sparse_mode(mode);
  }
  ~ScopedSparseMode() { markov::force_sparse_mode(markov::SparseMode::kAuto); }
};

using test::city_chain;

double max_abs_gap(const linalg::Vector& a, const linalg::Vector& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    gap = std::max(gap, std::abs(a[i] - b[i]));
  return gap;
}

/// R = first_passage_times(Z, π) of an analysis (Eq. 8).
linalg::Matrix passage_times(const markov::ChainAnalysis& chain) {
  return markov::first_passage_times(chain.z, chain.pi);
}

double max_rel_gap(const linalg::Matrix& a, const linalg::Matrix& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      gap = std::max(gap, std::abs(a(i, j) - b(i, j)) /
                              std::max(1.0, std::abs(b(i, j))));
  return gap;
}

TEST(CityTopology, DeterministicSeparatedAndSeeded) {
  geometry::CityConfig cfg;
  cfg.count = 100;
  cfg.seed = 42;
  const auto a = geometry::city_topology(cfg);
  const auto b = geometry::city_topology(cfg);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x);
    EXPECT_EQ(a.position(i).y, b.position(i).y);
    EXPECT_EQ(a.target(i), b.target(i));
  }
  // The jitter cap guarantees >= 0.3 * spacing pairwise separation.
  EXPECT_GE(a.min_separation(), 0.3);

  cfg.seed = 43;
  const auto c = geometry::city_topology(cfg);
  EXPECT_NE(a.position(0).x, c.position(0).x);
}

TEST(CityTopology, RadiusNeighborsMatchBruteForce) {
  geometry::CityConfig cfg;
  cfg.count = 60;
  cfg.seed = 7;
  const auto topo = geometry::city_topology(cfg);
  for (const double radius : {0.8, 1.7, 3.2}) {
    const auto fast = geometry::radius_neighbors(topo, radius);
    ASSERT_EQ(fast.size(), topo.size());
    for (std::size_t i = 0; i < topo.size(); ++i) {
      std::vector<std::size_t> brute;
      for (std::size_t j = 0; j < topo.size(); ++j)
        if (topo.distance(i, j) <= radius) brute.push_back(j);
      EXPECT_EQ(fast[i], brute) << "PoI " << i << " radius " << radius;
    }
  }
}

TEST(SparseAnalysis, PiAndPassageTimesMatchDense) {
  const auto p = city_chain(196, 2);
  partition::SparseSolveStats stats;
  const auto sparse_chain =
      partition::try_sparse_analyze_chain(p, {}, {}, &stats);
  ASSERT_TRUE(sparse_chain.ok()) << sparse_chain.status().message();
  const markov::ChainAnalysis dense = markov::analyze_chain(p);

  // The acceptance contract: pi and R agree with the dense pipeline to 1e-8
  // on weakly-coupled fixtures.
  EXPECT_LE(max_abs_gap(sparse_chain->pi, dense.pi), 1e-8);
  EXPECT_LE(max_rel_gap(passage_times(*sparse_chain), passage_times(dense)),
            1e-8);
  EXPECT_LE(max_rel_gap(sparse_chain->z, dense.z), 1e-8);
  EXPECT_LE(stats.pi_gap, 1e-8);
  // The banded resolvent ran: the RCM bandwidth is within the n/3 cap.
  EXPECT_GT(stats.bandwidth, 0u);
  EXPECT_LE(stats.bandwidth, 196u / 3);
}

TEST(SparseAnalysis, CrossCheckGateRejectsAnyPiDisagreement) {
  // With a zero tolerance the two independent π estimates (resolvent column
  // sums vs sparse power iteration) cannot agree to the last bit, so the
  // gate must refuse the analysis and report the gap it measured.
  const auto p = city_chain(196, 2);
  partition::SparseAnalysisConfig config;
  config.pi_agreement_tol = 0.0;
  partition::SparseSolveStats stats;
  const auto chain = partition::try_sparse_analyze_chain(p, config, {}, &stats);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), util::StatusCode::kNotErgodic);
  EXPECT_GT(stats.pi_gap, 0.0);
  EXPECT_LE(stats.pi_gap, 1e-8);
}

TEST(SparseAnalysis, PeriodicChainFallsBackToTheDensePipeline) {
  // A reflecting fair walk on a path is irreducible but periodic: the power
  // iteration cross-check never reaches a fixed point, so the sparse
  // analysis is refused and try_analyze_chain answers from the dense
  // pipeline — bit for bit what the dense-only mode computes.
  const std::size_t n = 200;
  linalg::Matrix m(n, n);
  m(0, 1) = 1.0;
  m(n - 1, n - 2) = 1.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    m(i, i - 1) = 0.5;
    m(i, i + 1) = 0.5;
  }
  const markov::TransitionMatrix p(m);
  ASSERT_TRUE(markov::sparse_path_enabled(p.matrix()));
  EXPECT_FALSE(partition::try_sparse_analyze_chain(p).ok());

  obs::MetricsRegistry metrics;
  util::StatusOr<markov::ChainAnalysis> chain = [&] {
    obs::ScopedMetrics install(&metrics);
    return markov::try_analyze_chain(p);
  }();
  ASSERT_TRUE(chain.ok()) << chain.status().message();
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_value("markov.sparse.fallbacks"), 1u);
  EXPECT_EQ(snap.counter_value("markov.sparse.solves"), 0u);

  ScopedSparseMode off(markov::SparseMode::kOff);
  const auto dense = markov::try_analyze_chain(p);
  ASSERT_TRUE(dense.ok());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(chain->pi[i], dense->pi[i]);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(chain->z(i, j), dense->z(i, j)) << i << "," << j;
}

TEST(SparseAnalysis, BitIdenticalForAnyJobCount) {
  const auto p = city_chain(144, 3);
  const runtime::ExecutionContext serial(1);
  const runtime::ExecutionContext parallel(4);
  const auto a = partition::try_sparse_analyze_chain(p, {}, serial);
  const auto b = partition::try_sparse_analyze_chain(p, {}, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t i = 0; i < a->pi.size(); ++i)
    EXPECT_EQ(a->pi[i], b->pi[i]);
  for (std::size_t i = 0; i < 144; ++i)
    for (std::size_t j = 0; j < 144; ++j) EXPECT_EQ(a->z(i, j), b->z(i, j));
}

/// RCM-ordered anchored system of a chain, factored the way
/// partition::try_sparse_resolvent factors it.
struct RcmSystem {
  std::vector<std::size_t> perm;
  linalg::Vector c;
  sparse::BandedResolventLu lu;
};

RcmSystem rcm_system(const markov::TransitionMatrix& p) {
  const std::size_t n = p.size();
  const sparse::SparseMatrix sp = sparse::SparseMatrix::from_dense(p.matrix());
  std::vector<std::size_t> perm = partition::bandwidth_ordering(sp);
  std::vector<std::size_t> inv(n);
  for (std::size_t a = 0; a < n; ++a) inv[perm[a]] = a;
  std::vector<sparse::Triplet> entries;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = sp.row_offsets()[i]; e < sp.row_offsets()[i + 1]; ++e)
      entries.push_back({inv[i], inv[sp.col_indices()[e]], sp.values()[e]});
  linalg::Vector c(n, 1.0 / static_cast<double>(n));
  auto lu = sparse::BandedResolventLu::try_factor(
      sparse::SparseMatrix::from_triplets(n, n, entries), c,
      partition::pattern_bandwidth(sp, perm));
  EXPECT_TRUE(lu.ok()) << lu.status().message();
  return {std::move(perm), std::move(c), std::move(*lu)};
}

// city:192 has n % 4 == 0; the 150-PoI map leaves a 2-column tail block.
struct MapSpec {
  std::size_t n;
  std::uint64_t seed;
};
constexpr MapSpec kBlockedMaps[] = {{192, 5}, {150, 2}};

TEST(BandedResolventLu, UnitBlockMatchesSingleColumnSolvesBitwise) {
  constexpr std::size_t kw = sparse::BandedResolventLu::kBlockWidth;
  for (const auto& [n, seed] : kBlockedMaps) {
    const RcmSystem sys = rcm_system(city_chain(n, seed));
    std::vector<linalg::Vector> single(n, linalg::Vector(n, 0.0));
    for (std::size_t j = 0; j < n; ++j) {
      single[j][j] = 1.0;
      sys.lu.solve_inplace(single[j]);
    }
    // A block at every start row, so each column is checked in every lane.
    std::vector<double> x;
    for (std::size_t first = 0; first < n; ++first) {
      sys.lu.solve_unit_block(first, x);
      ASSERT_EQ(x.size(), n * kw);
      for (std::size_t r = 0; r < kw; ++r) {
        linalg::Vector col(n);
        for (std::size_t i = 0; i < n; ++i) col[i] = x[i * kw + r];
        if (first + r < n) {
          ASSERT_TRUE(test::same_bits(col, single[first + r]))
              << "n " << n << " first " << first << " lane " << r;
        } else {
          for (double v : col) ASSERT_EQ(v, 0.0) << "zero lane " << r;
        }
      }
    }
  }
}

TEST(SparseResolvent, BitIdenticalForAnyJobCount) {
  for (const auto& [n, seed] : kBlockedMaps) {
    const sparse::SparseMatrix sp =
        sparse::SparseMatrix::from_dense(city_chain(n, seed).matrix());
    const linalg::Vector c(n, 1.0 / static_cast<double>(n));
    const runtime::ExecutionContext one(1), four(4);
    const auto serial = partition::try_sparse_resolvent(sp, c, {}, one);
    const auto parallel = partition::try_sparse_resolvent(sp, c, {}, four);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    EXPECT_TRUE(test::same_bits(*serial, *parallel)) << "n " << n;
  }
}

TEST(SparseResolvent, MatchesColumnByColumnAssembly) {
  // Reference assembly: one solve per column, then the Sherman-Morrison
  // correction, then a scatter through the ordering.
  for (const auto& [n, seed] : kBlockedMaps) {
    const markov::TransitionMatrix p = city_chain(n, seed);
    const RcmSystem sys = rcm_system(p);
    linalg::Vector w(n, 1.0);
    w[n - 1] = 0.0;
    sys.lu.solve_inplace(w);
    double denom = 1.0;
    for (std::size_t i = 0; i < n; ++i) denom += sys.c[i] * w[i];
    linalg::Matrix g_perm(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      linalg::Vector col(n, 0.0);
      col[j] = 1.0;
      sys.lu.solve_inplace(col);
      double cg = 0.0;
      for (std::size_t i = 0; i < n; ++i) cg += sys.c[i] * col[i];
      const double scale = cg / denom;
      for (std::size_t i = 0; i < n; ++i) g_perm(i, j) = col[i] - scale * w[i];
    }
    linalg::Matrix ref(n, n);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b)
        ref(sys.perm[a], sys.perm[b]) = g_perm(a, b);

    const auto g = partition::try_sparse_resolvent(
        sparse::SparseMatrix::from_dense(p.matrix()), sys.c);
    ASSERT_TRUE(g.ok()) << g.status().message();
    EXPECT_TRUE(test::same_bits(*g, ref)) << "n " << n;
  }
}

TEST(SparseAnalysis, FullyCoupledChainStillMatchesDense) {
  // A dense random chain has no band to exploit: the dispatcher falls
  // through to dense, and the answer must match the dense pipeline.
  ScopedSparseMode forced(markov::SparseMode::kOn);
  util::Rng rng(31);
  const auto p = test::random_positive_chain(24, rng);
  const auto chain = markov::try_analyze_chain(p);
  ASSERT_TRUE(chain.ok()) << chain.status().message();
  markov::force_sparse_mode(markov::SparseMode::kOff);
  const auto dense = markov::try_analyze_chain(p);
  ASSERT_TRUE(dense.ok());
  EXPECT_LE(max_abs_gap(chain->pi, dense->pi), 1e-8);
  EXPECT_LE(max_rel_gap(passage_times(*chain), passage_times(*dense)), 1e-8);

  // The RCM bandwidth of a fully coupled chain exceeds the n/3 cap, so the
  // banded resolvent refuses and the solver cache factors densely.
  partition::SparseSolveStats stats;
  const auto g = partition::try_sparse_resolvent(
      sparse::SparseMatrix::from_dense(p.matrix()),
      linalg::Vector(24, 1.0 / 24.0), {}, {}, &stats);
  EXPECT_FALSE(g.ok());
  EXPECT_GT(stats.bandwidth, 24u / 3);
  markov::force_sparse_mode(markov::SparseMode::kOn);
  markov::ChainSolveCache cache;
  ASSERT_TRUE(cache.reset(p).is_ok());
  EXPECT_EQ(cache.stats().full_solves, 1u);
  EXPECT_EQ(cache.stats().sparse_full_solves, 0u);
}

TEST(SparseMode, AutoGateRespectsSizeAndDensity) {
  // Small chains never take the sparse path under kAuto.
  EXPECT_FALSE(markov::sparse_path_enabled(test::chain3().matrix()));
  // A large sparse chain does...
  const auto big = city_chain(256, 4);
  EXPECT_TRUE(markov::sparse_path_enabled(big.matrix()));
  // ...but a large dense chain does not (density above the cutoff).
  util::Rng rng(5);
  const auto dense = test::random_positive_chain(200, rng);
  EXPECT_FALSE(markov::sparse_path_enabled(dense.matrix()));

  {
    ScopedSparseMode off(markov::SparseMode::kOff);
    EXPECT_FALSE(markov::sparse_path_enabled(big.matrix()));
  }
  {
    ScopedSparseMode on(markov::SparseMode::kOn);
    EXPECT_TRUE(markov::sparse_path_enabled(big.matrix()));
    // Forced mode still refuses tiny chains (below the M >= 8 floor).
    EXPECT_FALSE(markov::sparse_path_enabled(test::chain2(0.3, 0.4).matrix()));
  }
}

TEST(SparseMode, AutoGatePinnedExactlyAtItsBoundaries) {
  // Regression pin on the documented kAuto contract — M >= 192 AND
  // density <= 0.25, both comparisons inclusive. A drift in either constant
  // or a <-vs-<= slip silently reroutes city-scale maps between pipelines;
  // this test fails loudly instead.
  ASSERT_EQ(markov::kSparseAutoMinSize, 192u);
  ASSERT_EQ(markov::kSparseAutoMaxDensity, 0.25);

  // Identical ring structure (self + both neighbours, density 3/M << 0.25)
  // on either side of the size cutoff: 191 stays dense, 192 goes sparse.
  const auto ring = [](std::size_t n) {
    linalg::Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      m(i, i) = 0.5;
      m(i, (i + 1) % n) = 0.25;
      m(i, (i + n - 1) % n) = 0.25;
    }
    return m;
  };
  EXPECT_FALSE(markov::sparse_path_enabled(ring(191)));
  EXPECT_TRUE(markov::sparse_path_enabled(ring(192)));

  // Density boundary at M = 192: exactly 25% nonzeros still qualifies; one
  // extra nonzero tips the chain back to the dense pipeline.
  const std::size_t n = markov::kSparseAutoMinSize;
  const std::size_t row_quota = n / 4;  // 48 nonzeros/row == exactly 25%
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < row_quota; ++k)
      m(i, (i + k) % n) = 1.0 / static_cast<double>(row_quota);
  EXPECT_TRUE(markov::sparse_path_enabled(m));
  m(0, row_quota) = 1e-12;  // 25% + one entry
  EXPECT_FALSE(markov::sparse_path_enabled(m));
}

TEST(SparseIncremental, CacheParityHoldsAtBlockLevel) {
  // The cache's parity contract, at block level: a reset whose resolvent
  // comes from the banded backend must agree with the dense from-scratch
  // analysis to 1e-10, along a walk of support-preserving probes.
  ScopedSparseMode forced(markov::SparseMode::kOn);
  linalg::Matrix m = city_chain(64, 6).matrix();
  util::Rng rng(77);
  markov::ChainSolveCache cache;
  for (std::size_t step = 0; step < 5; ++step) {
    if (step > 0) {
      const std::size_t row = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(m.rows()) - 0.001));
      double sum = 0.0;
      for (std::size_t j = 0; j < m.cols(); ++j) {
        m(row, j) *= 0.5 + rng.uniform();  // structural zeros stay zero
        sum += m(row, j);
      }
      for (std::size_t j = 0; j < m.cols(); ++j) m(row, j) /= sum;
    }
    ASSERT_TRUE(cache.reset(markov::TransitionMatrix(m)).is_ok());
    EXPECT_EQ(cache.stats().sparse_full_solves, step + 1);

    markov::force_sparse_mode(markov::SparseMode::kOff);
    const markov::ChainAnalysis ref =
        markov::analyze_chain(markov::TransitionMatrix(m));
    markov::force_sparse_mode(markov::SparseMode::kOn);

    const markov::ChainAnalysis& got = cache.analysis();
    EXPECT_LE(max_abs_gap(got.pi, ref.pi), 1e-10) << "step " << step;
    EXPECT_LE(max_rel_gap(got.z, ref.z), 1e-10) << "step " << step;
    EXPECT_LE(max_rel_gap(passage_times(got), passage_times(ref)), 1e-10)
        << "step " << step;
  }
  EXPECT_EQ(cache.stats().full_solves, 5u);
  EXPECT_EQ(cache.stats().incremental_row_updates, 0u);
}

TEST(SparseDescent, SupportRestrictedProblemKeepsZerosEndToEnd) {
  geometry::CityConfig cfg;
  cfg.count = 49;
  cfg.seed = 9;
  core::Physics physics;
  physics.sensing_radius = 0.1;  // city min separation is 0.3
  physics.support_radius = 2.0;
  core::Weights w;
  const core::Problem problem(geometry::city_topology(cfg), physics, w);
  ASSERT_TRUE(problem.tensors().sparse());
  ASSERT_EQ(problem.support().size(), 49u);

  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 3;
  const core::CoverageOptimizer optimizer(problem, opts);
  const core::OptimizationOutcome outcome = optimizer.run();

  // The descent stayed on the support: structural zeros survived every
  // projection, step, clamp and renormalization exactly.
  const auto& support = problem.support();
  for (std::size_t i = 0; i < 49; ++i) {
    std::size_t s = 0;
    for (std::size_t j = 0; j < 49; ++j) {
      const bool on_support = s < support[i].size() && support[i][s] == j;
      if (on_support) {
        EXPECT_GT(outcome.p(i, j), 0.0);
        ++s;
      } else {
        EXPECT_EQ(outcome.p(i, j), 0.0);
      }
    }
  }
  EXPECT_TRUE(std::isfinite(outcome.penalized_cost));
  EXPECT_TRUE(std::isfinite(outcome.report_cost));
  EXPECT_TRUE(std::isfinite(outcome.metrics.delta_c));
}

}  // namespace
}  // namespace mocos
