#include "src/sparse/banded_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace mocos::sparse {

namespace {
/// Elimination pivots of I − P shrink toward 0 as the trailing submatrix
/// approaches singularity (a nearly reducible chain); below this floor the
/// factorization is meaningless and the caller should fall back.
constexpr double kPivotFloor = 1e-12;
}  // namespace

util::StatusOr<BandedResolventLu> BandedResolventLu::try_factor(
    const SparseMatrix& p, const linalg::Vector& c, std::size_t bandwidth) {
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || c.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "BandedResolventLu: need square P (n >= 2) and "
                        "matching anchor row");
  BandedResolventLu lu;
  lu.n_ = n;
  lu.b_ = std::min(bandwidth, n - 1);
  const std::size_t b = lu.b_;
  lu.band_.assign((n - 1) * (2 * b + 1), 0.0);
  lu.last_row_.assign(n, 0.0);

  // Scatter B = I − P + e_{n−1}cᵀ into the band + dense last row.
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& vals = p.values();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    lu.band(i, i) = 1.0;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::size_t j = cols[e];
      const std::size_t dist = i > j ? i - j : j - i;
      if (dist > b)
        return util::Status(
            util::StatusCode::kInvalidConfig,
            "BandedResolventLu: entry (" + std::to_string(i) + ", " +
                std::to_string(j) + ") outside bandwidth " +
                std::to_string(b));
      lu.band(i, j) -= vals[e];
    }
  }
  for (std::size_t j = 0; j < n; ++j)
    lu.last_row_[j] = (j + 1 == n ? 1.0 : 0.0) + c[j];
  for (std::size_t e = offsets[n - 1]; e < offsets[n]; ++e)
    lu.last_row_[cols[e]] -= vals[e];

  // In-place LU, natural order. Fill stays within the band (classic banded
  // property) plus the dense last row, which is eliminated against every
  // column but eliminates nothing itself.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double pivot = lu.band(k, k);
    if (!(std::abs(pivot) > kPivotFloor) || !std::isfinite(pivot))
      return util::Status(util::StatusCode::kSingularMatrix,
                          "BandedResolventLu: pivot " + std::to_string(pivot) +
                              " at column " + std::to_string(k));
    const std::size_t row_end = std::min(k + b, n - 2);
    const std::size_t col_end = std::min(k + b, n - 1);
    for (std::size_t i = k + 1; i <= row_end; ++i) {
      const double l = lu.band(i, k) / pivot;
      lu.band(i, k) = l;
      // mocos-lint: allow(float-eq)
      if (l == 0.0) continue;  // exact: structural zero below the pivot
      for (std::size_t j = k + 1; j <= col_end; ++j)
        lu.band(i, j) -= l * lu.band(k, j);
    }
    const double l_last = lu.last_row_[k] / pivot;
    lu.last_row_[k] = l_last;
    // mocos-lint: allow(float-eq)
    if (l_last != 0.0) {
      for (std::size_t j = k + 1; j <= col_end; ++j)
        lu.last_row_[j] -= l_last * lu.band(k, j);
    }
  }
  const double last_pivot = lu.last_row_[n - 1];
  if (!(std::abs(last_pivot) > kPivotFloor) || !std::isfinite(last_pivot))
    return util::Status(util::StatusCode::kSingularMatrix,
                        "BandedResolventLu: final pivot " +
                            std::to_string(last_pivot));
  return lu;
}

namespace {

/// Two adjacent columns of an interleaved block. Arithmetic on it is the
/// same IEEE operation per lane as on a double; spelling the lanes out keeps
/// the compiler from vectorizing over k instead, which shuffles every step.
using Lanes = double __attribute__((vector_size(2 * sizeof(double))));
static_assert(BandedResolventLu::kBlockWidth ==
              2 * sizeof(Lanes) / sizeof(double));

Lanes load(const double* p) {
  Lanes v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

Lanes splat(double s) { return Lanes{s, s}; }

}  // namespace

void BandedResolventLu::solve_block(std::size_t first, double* x) const {
  constexpr std::size_t kw = kBlockWidth;
  const std::size_t n = n_;
  const std::size_t b = b_;
  const std::size_t stride = 2 * b + 1;
  const double* bands = band_.data();
  // Forward substitution with unit-lower L, row (dot) form: row i subtracts
  // l_ik x_k over ascending k, including x_k = 0. A ±0 product changes a
  // value only when that value is −0, and none is as long as no input entry
  // is −0 (unit columns and w hold +0 and 1), since x − y is −0 only when x
  // is −0. That makes this form bit-identical to the column (axpy) form
  // that skips x_k = 0 (DESIGN.md §12.2).
  for (std::size_t i = first; i + 1 < n; ++i) {
    const double* row = bands + i * stride + b - i;  // row[k] = l_ik
    Lanes lo = load(x + i * kw), hi = load(x + i * kw + 2);
    for (std::size_t k = std::max(first, i > b ? i - b : 0); k < i; ++k) {
      const Lanes l = splat(row[k]);
      lo -= l * load(x + k * kw);
      hi -= l * load(x + k * kw + 2);
    }
    store(x + i * kw, lo);
    store(x + i * kw + 2, hi);
  }
  {
    double* last = x + (n - 1) * kw;
    Lanes lo = load(last), hi = load(last + 2);
    for (std::size_t k = first; k + 1 < n; ++k) {
      const Lanes l = splat(last_row_[k]);
      lo -= l * load(x + k * kw);
      hi -= l * load(x + k * kw + 2);
    }
    const Lanes pivot = splat(last_row_[n - 1]);
    store(last, lo / pivot);
    store(last + 2, hi / pivot);
  }
  // Back substitution with U, row form.
  for (std::size_t k = n - 1; k-- > 0;) {
    const double* row = bands + k * stride + b - k;  // row[j] = u_kj
    Lanes lo = load(x + k * kw), hi = load(x + k * kw + 2);
    const std::size_t col_end = std::min(k + b, n - 1);
    for (std::size_t j = k + 1; j <= col_end; ++j) {
      const Lanes u = splat(row[j]);
      lo -= u * load(x + j * kw);
      hi -= u * load(x + j * kw + 2);
    }
    const Lanes pivot = splat(row[k]);
    store(x + k * kw, lo / pivot);
    store(x + k * kw + 2, hi / pivot);
  }
}

void BandedResolventLu::solve_inplace(linalg::Vector& rhs) const {
  // Lane 0 of a block; the other lanes solve zero right-hand sides.
  std::vector<double> x(n_ * kBlockWidth, 0.0);
  for (std::size_t i = 0; i < n_; ++i) x[i * kBlockWidth] = rhs[i];
  solve_block(0, x.data());
  for (std::size_t i = 0; i < n_; ++i) rhs[i] = x[i * kBlockWidth];
}

void BandedResolventLu::solve_unit_block(std::size_t first,
                                         std::vector<double>& x) const {
  x.assign(n_ * kBlockWidth, 0.0);
  for (std::size_t r = 0; r < kBlockWidth && first + r < n_; ++r)
    x[(first + r) * kBlockWidth + r] = 1.0;
  solve_block(first, x.data());
}

}  // namespace mocos::sparse
