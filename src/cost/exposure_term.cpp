#include "src/cost/exposure_term.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mocos::cost {

namespace {
// The barrier keeps p_ii strictly below 1, but line-search probes may step
// close; the clamp keeps the evaluation finite-and-huge instead of dividing
// by zero.
constexpr double kMinStay = 1e-12;

double hold_probability(const markov::ChainAnalysis& chain, std::size_t i) {
  return std::max(1.0 - chain.p(i, i), kMinStay);
}
}  // namespace

ExposureTerm::ExposureTerm(std::vector<double> betas)
    : betas_(std::move(betas)) {
  if (betas_.empty()) throw std::invalid_argument("ExposureTerm: empty betas");
  for (double b : betas_)
    if (b < 0.0) throw std::invalid_argument("ExposureTerm: negative beta");
}

ExposureTerm::ExposureTerm(std::size_t n, double beta)
    : ExposureTerm(std::vector<double>(n, beta)) {}

linalg::Vector ExposureTerm::compute_mean_exposures(
    const markov::ChainAnalysis& chain) {
  // h_i = Σ_{j≠i} p_ij (z_ii − z_ji), using R_ji = (z_ii − z_ji)/π_i for
  // j ≠ i. j runs outermost so that row j of Z is read contiguously; each
  // h_i sums over ascending j, the order the recorded results were made in.
  const std::size_t n = chain.p.size();
  const double* p = chain.p.matrix().data();
  const double* z = chain.z.data();
  linalg::Vector z_diag(n);
  for (std::size_t i = 0; i < n; ++i) z_diag[i] = z[i * n + i];
  linalg::Vector e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* z_row = z + j * n;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      e[i] += p[i * n + j] * (z_diag[i] - z_row[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    e[i] /= chain.pi[i] * hold_probability(chain, i);
  return e;
}

linalg::Vector ExposureTerm::mean_exposures(
    const markov::ChainAnalysis& chain) const {
  if (chain.p.size() != betas_.size())
    throw std::invalid_argument("ExposureTerm: chain size mismatch");
  return compute_mean_exposures(chain);
}

double ExposureTerm::value(const markov::ChainAnalysis& chain) const {
  const linalg::Vector e = mean_exposures(chain);
  double u = 0.0;
  for (std::size_t i = 0; i < e.size(); ++i)
    u += 0.5 * betas_[i] * e[i] * e[i];
  return u;
}

void ExposureTerm::accumulate_weighted_exposure_partials(
    const markov::ChainAnalysis& chain, const linalg::Vector& dcost_dexposure,
    Partials& out) {
  const std::size_t n = chain.p.size();
  if (dcost_dexposure.size() != n)
    throw std::invalid_argument(
        "accumulate_weighted_exposure_partials: weight size mismatch");
  const linalg::Vector e = compute_mean_exposures(chain);
  // dU = Σ_i g_i dĒ_i with g_i = dcost_dexposure[i] and, writing
  // s_i = 1 - p_ii:
  //   ∂Ē_i/∂π_i       = -Ē_i / π_i
  //   ∂Ē_i/∂p_ii      =  Ē_i / s_i
  //   ∂Ē_i/∂p_ij      = (z_ii - z_ji)/(π_i s_i)          (j ≠ i)
  //   ∂Ē_i/∂z_ii      = Σ_{j≠i} p_ij /(π_i s_i) = 1/π_i
  //   ∂Ē_i/∂z_ji      = -p_ij /(π_i s_i)                 (j ≠ i)
  for (std::size_t i = 0; i < n; ++i) {
    const double w = dcost_dexposure[i];
    // Exact on purpose: every partial below is scaled by w, so skipping an
    // exact zero is lossless; skipping near-zeros would bias the gradient.
    // mocos-lint: allow(float-eq)
    if (w == 0.0) continue;
    const double s = hold_probability(chain, i);
    const double inv_pis = 1.0 / (chain.pi[i] * s);
    out.du_dpi[i] += w * (-e[i] / chain.pi[i]);
    out.du_dp(i, i) += w * (e[i] / s);
    out.du_dz(i, i) += w * ((1.0 - chain.p(i, i)) * inv_pis);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      out.du_dp(i, j) += w * (chain.z(i, i) - chain.z(j, i)) * inv_pis;
      out.du_dz(j, i) += w * (-chain.p(i, j) * inv_pis);
    }
  }
}

void ExposureTerm::accumulate_partials(const markov::ChainAnalysis& chain,
                                       Partials& out) const {
  // The quadratic objective U = Σ_i ½ β_i Ē_i² has outer derivative
  // ∂U/∂Ē_i = β_i Ē_i; everything else is the shared Ē_i chain rule.
  const linalg::Vector e = mean_exposures(chain);
  linalg::Vector g(e.size(), 0.0);
  for (std::size_t i = 0; i < e.size(); ++i) g[i] = betas_[i] * e[i];
  accumulate_weighted_exposure_partials(chain, g, out);
}

}  // namespace mocos::cost
