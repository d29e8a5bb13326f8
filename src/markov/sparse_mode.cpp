#include "src/markov/sparse_mode.hpp"

#include <atomic>

namespace mocos::markov {

namespace {
std::atomic<int> g_forced{-1};  // -1 = unset (kAuto), else SparseMode value
}  // namespace

void force_sparse_mode(SparseMode mode) {
  g_forced.store(static_cast<int>(mode), std::memory_order_relaxed);
}

SparseMode sparse_mode() {
  const int v = g_forced.load(std::memory_order_relaxed);
  return v < 0 ? SparseMode::kAuto : static_cast<SparseMode>(v);
}

bool sparse_path_enabled(const linalg::Matrix& p) {
  const std::size_t n = p.rows();
  switch (sparse_mode()) {
    case SparseMode::kOff:
      return false;
    case SparseMode::kOn:
      return n >= kSparseForcedMinSize;
    case SparseMode::kAuto:
      break;
  }
  if (n < kSparseAutoMinSize) return false;
  std::size_t nonzeros = 0;
  const double* data = p.data();
  const std::size_t total = n * p.cols();
  for (std::size_t i = 0; i < total; ++i)
    // mocos-lint: allow(float-eq) — structural zeros are stored exactly
    if (data[i] != 0.0) ++nonzeros;
  return static_cast<double>(nonzeros) <=
         kSparseAutoMaxDensity * static_cast<double>(total);
}

}  // namespace mocos::markov
