#include "src/markov/sensitivity.hpp"

#include <algorithm>
#include <stdexcept>

namespace mocos::markov {

namespace {

/// Column tile of the second product: 4 rows × kTile doubles of the output
/// stay in L1 while row k of Zᵀ streams through.
constexpr std::size_t kTile = 256;

/// True when none of a block's four left factors is an exact zero, so no
/// row of the block skips this k.
bool none_skipped(const double* a) {
  // mocos-lint: allow(float-eq) -- operator*'s exact left-factor skip
  return a[0] != 0.0 && a[1] != 0.0 && a[2] != 0.0 && a[3] != 0.0;
}

/// Zᵀ Ḡ Zᵀ, entry for entry the same floating-point operations as
/// `(zt * g) * zt` with linalg::operator*: every entry sums its products over
/// ascending k from +0.0 and skips the k whose left factor is an exact zero.
/// Only memory order and blocking differ:
///   - A = Zᵀ Ḡ visits Ḡ's nonzeros only and is stored transposed
///     (at(j, i) = a_ij), so each nonzero ḡ_kj adds row k of Z into row j.
///     Skipping ḡ_kj = 0 adds nothing: z_ki ḡ_kj is ±0 for finite Z (every
///     ChainAnalysis producer checks Z), and a sum that starts at +0.0 is
///     never −0, so adding ±0 leaves it unchanged.
///   - A Zᵀ runs over 4-row blocks, whose a_{i,k} sit next to each other in
///     `at`, and kTile-column tiles of Zᵀ.
linalg::Matrix zt_g_zt(const linalg::Matrix& z, const linalg::Matrix& g) {
  const std::size_t n = z.rows();
  const double* zd = z.data();
  const double* gd = g.data();
  linalg::Matrix at(n, n);
  double* atd = at.data();
  for (std::size_t k = 0; k < n; ++k) {
    const double* zk = zd + k * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double gkj = gd[k * n + j];
      // mocos-lint: allow(float-eq) -- a zero ḡ_kj adds ±0 (see above)
      if (gkj == 0.0) continue;
      double* row = atd + j * n;
      for (std::size_t i = 0; i < n; ++i) {
        // mocos-lint: allow(float-eq) -- operator*'s exact left-factor skip
        if (zk[i] == 0.0) continue;
        row[i] += zk[i] * gkj;
      }
    }
  }
  const linalg::Matrix zt = z.transposed();
  const double* ztd = zt.data();
  linalg::Matrix out(n, n);
  double* od = out.data();
  for (std::size_t l0 = 0; l0 < n; l0 += kTile) {
    const std::size_t l1 = std::min(n, l0 + kTile);
    for (std::size_t i0 = 0; i0 < n; i0 += 4) {
      const std::size_t rows = std::min<std::size_t>(4, n - i0);
      double* c[4] = {};
      for (std::size_t r = 0; r < rows; ++r) c[r] = od + (i0 + r) * n;
      for (std::size_t k = 0; k < n; ++k) {
        const double* a = atd + k * n + i0;  // a_{i0..i0+3, k}
        const double* b = ztd + k * n;
        if (rows == 4 && none_skipped(a)) {
          const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
          for (std::size_t l = l0; l < l1; ++l) {
            const double bl = b[l];
            c[0][l] += a0 * bl;
            c[1][l] += a1 * bl;
            c[2][l] += a2 * bl;
            c[3][l] += a3 * bl;
          }
          continue;
        }
        for (std::size_t r = 0; r < rows; ++r) {
          // mocos-lint: allow(float-eq) -- operator*'s exact left-factor skip
          if (a[r] == 0.0) continue;
          for (std::size_t l = l0; l < l1; ++l) c[r][l] += a[r] * b[l];
        }
      }
    }
  }
  return out;
}

}  // namespace

linalg::Vector stationary_directional_derivative(const ChainAnalysis& chain,
                                                 const linalg::Matrix& pdot) {
  // dπ = π Ṗ Z   (π as a row vector).
  const linalg::Vector pi_pdot = linalg::mul(chain.pi, pdot);
  return linalg::mul(pi_pdot, chain.z);
}

linalg::Matrix fundamental_directional_derivative(const ChainAnalysis& chain,
                                                  const linalg::Matrix& pdot) {
  // dZ = Z Ṗ Z - W Ṗ Z². Since W = 𝟙πᵀ, the correction is rank one:
  // W Ṗ Z² = 𝟙 (πᵀ Ṗ Z Z), so three row-vector products replace the cached
  // Z² (which would cost an O(M³) product per chain analysis to maintain).
  const linalg::Vector pi_pdot_z2 =
      linalg::mul(linalg::mul(linalg::mul(chain.pi, pdot), chain.z), chain.z);
  return chain.z * pdot * chain.z -
         linalg::Matrix::outer(linalg::Vector(chain.pi.size(), 1.0),
                               pi_pdot_z2);
}

linalg::Matrix chain_rule_gradient(const ChainAnalysis& chain,
                                   const linalg::Vector& du_dpi,
                                   const linalg::Matrix& du_dz,
                                   const linalg::Matrix& du_dp) {
  const std::size_t n = chain.p.size();
  if (du_dpi.size() != n || du_dz.rows() != n || du_dz.cols() != n ||
      du_dp.rows() != n || du_dp.cols() != n)
    throw std::invalid_argument("chain_rule_gradient: size mismatch");

  // π-channel: [grad]_kl += π_k * Σ_i z_li ∂U/∂π_i = π_k * (Z du_dpi)_l.
  const linalg::Vector z_dupi = linalg::mul(chain.z, du_dpi);

  // Z-channel, term 1: Σ_ij ∂U/∂z_ij z_ik z_lj = (Zᵀ G Zᵀ)_kl with G=du_dz.
  // It is built in place of the gradient, which the loop below completes.
  linalg::Matrix grad = zt_g_zt(chain.z, du_dz);

  // Z-channel, term 2: -π_k Σ_ij ∂U/∂z_ij (Z²)_lj = -π_k (G (Z²)ᵀ summed
  // over i)_l; define s_l = Σ_ij G_ij (Z²)_lj = Σ_j (Σ_i G_ij) (Z²)_lj.
  // Z² appears only in this vector product, so compute s = Z (Z g) with two
  // matvecs instead of materializing Z².
  linalg::Vector col_sum_g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) col_sum_g[j] += du_dz(i, j);
  const linalg::Vector s =
      linalg::mul(chain.z, linalg::mul(chain.z, col_sum_g));

  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t l = 0; l < n; ++l) {
      grad(k, l) = chain.pi[k] * z_dupi[l] + grad(k, l) -
                   chain.pi[k] * s[l] + du_dp(k, l);
    }
  }
  return grad;
}

}  // namespace mocos::markov
