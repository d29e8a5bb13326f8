#pragma once

#include <cstddef>

#include "src/linalg/matrix.hpp"

namespace mocos::markov {

/// Selection policy for the sparse chain-analysis path (banded resolvent +
/// power-iteration cross-check, src/sparse/ + src/partition/).
enum class SparseMode {
  kAuto,  // size/density heuristic decides per chain (the default)
  kOn,    // force the sparse path wherever it is defined (M >= 8)
  kOff,   // dense pipeline only
};

/// Process-wide override for in-process tests and benches that pin one
/// backend (dense/sparse parity suites). No CLI flag, config key or
/// environment variable reaches it. kAuto until forced.
void force_sparse_mode(SparseMode mode);
[[nodiscard]] SparseMode sparse_mode();

/// The gate every sparsity-aware entry point consults: should chain `p` go
/// through the sparse analysis?
///  - forced kOff → never; forced kOn → whenever M >= 8;
///  - kAuto → M >= 192 and density(P) <= 0.25: below that size the dense
///    O(M³) pipeline is already microseconds and the sparse machinery is
///    pure overhead (and existing small-map flows stay byte-identical).
[[nodiscard]] bool sparse_path_enabled(const linalg::Matrix& p);

/// The kAuto thresholds, exposed for tests and the docs.
inline constexpr std::size_t kSparseAutoMinSize = 192;
inline constexpr double kSparseAutoMaxDensity = 0.25;
inline constexpr std::size_t kSparseForcedMinSize = 8;

}  // namespace mocos::markov
