#pragma once

#include <optional>

#include "src/cost/composite_cost.hpp"
#include "src/markov/incremental.hpp"
#include "src/markov/stationary.hpp"
#include "src/util/status.hpp"

namespace mocos::descent {

/// Cost/analysis evaluator backed by a ChainSolveCache, shared by the
/// deterministic and perturbed descent drivers. Every probe — gradient
/// evaluations, line-search φ(t) samples, candidate acceptance checks — goes
/// through one cache, so a probe that repeats the last analyzed matrix (an
/// accepted step re-analyzing the line search's final probe) is free.
class CachedCostEvaluator {
 public:
  /// Runs every probe through a private cache.
  explicit CachedCostEvaluator(const cost::CompositeCost& cost);

  /// Rides an externally owned cache instead of a private one — the
  /// mocos_serve warm-reuse path, where consecutive same-topology requests
  /// share one cache. The caller guarantees exclusive access to `shared` for
  /// this evaluator's lifetime.
  CachedCostEvaluator(const cost::CompositeCost& cost,
                      markov::ChainSolveCache& shared);

  /// safe_cost through the cache: U_ε(p), or +infinity when the chain
  /// analysis or cost evaluation fails (non-ergodic probe, singular system),
  /// so searches treat such points as infeasible.
  [[nodiscard]] double cost_at(const markov::TransitionMatrix& p);

  /// Guarded chain analysis for gradient evaluations. The direct solver runs
  /// through the cache; the power-iteration rung of the recovery ladder
  /// bypasses it (the cache's resolvent route *is* a direct solve). The
  /// pointer stays valid until the next call on this evaluator.
  [[nodiscard]] util::StatusOr<const markov::ChainAnalysis*> analyze(
      const markov::TransitionMatrix& p,
      markov::StationarySolver solver = markov::StationarySolver::kDirect);

  [[nodiscard]] const markov::ChainSolveCache& cache() const {
    return *cache_;
  }

  /// Counters accumulated by *this evaluator's* probes: on a private cache
  /// that is everything, on a shared cache the delta since construction —
  /// either way the number a single descent run should report.
  [[nodiscard]] markov::ChainSolveCache::Stats run_stats() const {
    return cache_->stats().delta_since(initial_stats_);
  }

 private:
  const cost::CompositeCost& cost_;
  std::optional<markov::ChainSolveCache> owned_;
  markov::ChainSolveCache* cache_;  // &*owned_ or the shared cache
  markov::ChainSolveCache::Stats initial_stats_;
  std::optional<markov::ChainAnalysis> fallback_;  // power-iteration results
};

/// Adds a finished cache's counters to the current metrics registry
/// (chain_cache.{full_solves,sparse_full_solves,exact_hits,row_updates});
/// no-op when metrics are off.
/// Called once per evaluator at the end of a descent run — counters are
/// commutative, so this is jobs-invariant wherever the run executed.
void record_cache_metrics(const markov::ChainSolveCache::Stats& stats);

}  // namespace mocos::descent
