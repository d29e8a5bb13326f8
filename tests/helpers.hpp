#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/sensing/travel_model.hpp"
#include "src/core/problem.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/rng.hpp"

namespace mocos::test {

/// A small, asymmetric, ergodic 3-state chain with known structure used by
/// many analytic unit tests.
inline markov::TransitionMatrix chain3() {
  return markov::TransitionMatrix(linalg::Matrix{
      {0.5, 0.3, 0.2}, {0.1, 0.6, 0.3}, {0.4, 0.4, 0.2}});
}

/// A 2-state chain whose stationary distribution and passage times have
/// closed forms: pi = (b, a)/(a+b), R_12 = 1/a, R_21 = 1/b.
inline markov::TransitionMatrix chain2(double a, double b) {
  return markov::TransitionMatrix(
      linalg::Matrix{{1.0 - a, a}, {b, 1.0 - b}});
}

/// Random strictly-positive ergodic chain (entries bounded away from 0).
inline markov::TransitionMatrix random_positive_chain(std::size_t n,
                                                      util::Rng& rng,
                                                      double floor = 0.02) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = floor + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  return markov::TransitionMatrix(std::move(m));
}

/// Weakly-coupled city fixture: uniform transitions over the radius-2
/// neighbourhoods of a jittered grid (4-connected at minimum, so ergodic).
inline markov::TransitionMatrix city_chain(std::size_t n, std::uint64_t seed) {
  geometry::CityConfig cfg;
  cfg.count = n;
  cfg.seed = seed;
  const auto topo = geometry::city_topology(cfg);
  return descent::support_uniform_start(geometry::radius_neighbors(topo, 2.0));
}

/// Eq. 10's chain rule spelled with plain linalg products: the reference
/// that markov::chain_rule_gradient must match bit for bit.
inline linalg::Matrix reference_chain_rule_gradient(
    const markov::ChainAnalysis& chain, const linalg::Vector& du_dpi,
    const linalg::Matrix& du_dz, const linalg::Matrix& du_dp) {
  const std::size_t n = chain.p.size();
  const linalg::Vector z_dupi = linalg::mul(chain.z, du_dpi);
  const linalg::Matrix zt = chain.z.transposed();
  const linalg::Matrix term_zz = (zt * du_dz) * zt;
  linalg::Vector col_sum_g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) col_sum_g[j] += du_dz(i, j);
  const linalg::Vector s =
      linalg::mul(chain.z, linalg::mul(chain.z, col_sum_g));
  linalg::Matrix grad(n, n);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t l = 0; l < n; ++l)
      grad(k, l) = chain.pi[k] * z_dupi[l] + term_zz(k, l) -
                   chain.pi[k] * s[l] + du_dp(k, l);
  return grad;
}

/// True when a and b hold the same bits (memcmp, not a tolerance).
inline bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}
inline bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Standard paper problem: topology index 1..4, default physics, weights.
inline core::Problem paper_problem(int topology, double alpha, double beta,
                                   double epsilon = 1e-4) {
  core::Weights w;
  w.alpha = alpha;
  w.beta = beta;
  w.epsilon = epsilon;
  return core::Problem(geometry::paper_topology(topology), core::Physics{}, w);
}

/// Random row-sum-zero direction matrix with entries in [-1, 1].
inline linalg::Matrix random_direction(std::size_t n, util::Rng& rng) {
  linalg::Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      v(i, j) = rng.uniform(-1.0, 1.0);
      mean += v(i, j);
    }
    mean /= static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) v(i, j) -= mean;
  }
  return v;
}

/// A test file path that cleans up after itself: a unique name under
/// testing::TempDir(), removed in the destructor, so a failing assertion
/// cannot leak the file. Only the name is reserved — the code under test (or
/// write()) creates the file. Movable (the moved-from object removes
/// nothing), not copyable.
class TempPath {
 public:
  /// `name` ends the file name, so its extension survives.
  explicit TempPath(const std::string& name)
      : path_(testing::TempDir() + "mocos_" + std::to_string(::getpid()) +
              "_" + std::to_string(next_id()) + "_" + name) {}
  TempPath(TempPath&& other) noexcept
      : path_(std::exchange(other.path_, std::string())) {}
  TempPath& operator=(TempPath&& other) noexcept {
    if (this != &other) {
      remove_file();
      path_ = std::exchange(other.path_, std::string());
    }
    return *this;
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;
  ~TempPath() { remove_file(); }

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Creates (or truncates) the file with `body`; returns the path.
  const std::string& write(const std::string& body) const {
    std::ofstream(path_) << body;
    return path_;
  }

 private:
  static unsigned next_id() {
    static std::atomic<unsigned> counter{0};
    return counter++;
  }
  void remove_file() {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
};

}  // namespace mocos::test
