#pragma once

#include <cstddef>
#include <optional>

#include "src/markov/fundamental.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// Memoized chain solve behind every descent probe.
///
/// reset(p) solves the resolvent
///
///   G = (I − P + 𝟙cᵀ)⁻¹,   c = 𝟙/M,
///
/// which is nonsingular for every irreducible row-stochastic P, with the
/// banded backend when sparse_path_enabled(P) picks it and dense LU
/// otherwise, then derives {π, Z} through analysis_from_resolvent (Eqs. 5–7).
/// update(p) is an exact-match memo in front of reset(): a probe that repeats
/// the last analyzed matrix (the gradient analysis of an accepted
/// line-search candidate) costs nothing.
///
/// The file and class names predate this design: they once also held
/// Sherman–Morrison row updates, which measurement showed never ran in a
/// descent (each probe moves every row) and which were removed.
class ChainSolveCache {
 public:
  /// Full solve of `p` from scratch. Any failure (non-ergodic chain,
  /// singular resolvent, non-finite values) clears the cache; has_state()
  /// turns false and the status explains why.
  [[nodiscard]] util::Status reset(const TransitionMatrix& p);

  /// The entry point the descent drivers call for every probe: an exact hit
  /// when `p` equals the cached matrix entry for entry, reset(p) otherwise.
  [[nodiscard]] util::Status update(const TransitionMatrix& p);

  /// True when the cache holds a valid analysis (last reset/update was ok).
  [[nodiscard]] bool has_state() const { return analysis_.has_value(); }

  /// The cached analysis; requires has_state().
  [[nodiscard]] const ChainAnalysis& analysis() const { return *analysis_; }

  /// Counters for tests, benches, and the CLI recovery log.
  struct Stats {
    std::size_t full_solves = 0;         // successful reset() calls
    std::size_t sparse_full_solves = 0;  // subset of full_solves whose G
                                         // came from the banded backend
    std::size_t exact_hits = 0;          // update() of the cached matrix
    /// Always 0. Kept because the `chain_cache.row_updates` counter and the
    /// serve response's `cache_row_updates` field are published contracts.
    std::size_t incremental_row_updates = 0;

    /// Accumulates another cache's counters (an optimization run can span
    /// several caches — e.g. the stochastic phase and its quench polish).
    void add(const Stats& other) {
      full_solves += other.full_solves;
      sparse_full_solves += other.sparse_full_solves;
      exact_hits += other.exact_hits;
      incremental_row_updates += other.incremental_row_updates;
    }

    /// Counters accumulated since `baseline` (a snapshot of the same cache
    /// taken earlier). Lets a descent run report only its own work when it
    /// rides a long-lived shared cache (mocos_serve warm reuse) whose
    /// counters span many requests.
    [[nodiscard]] Stats delta_since(const Stats& baseline) const {
      Stats d;
      d.full_solves = full_solves - baseline.full_solves;
      d.sparse_full_solves = sparse_full_solves - baseline.sparse_full_solves;
      d.exact_hits = exact_hits - baseline.exact_hits;
      d.incremental_row_updates =
          incremental_row_updates - baseline.incremental_row_updates;
      return d;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::optional<ChainAnalysis> analysis_;
  Stats stats_;
};

}  // namespace mocos::markov
