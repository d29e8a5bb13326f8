#include "src/descent/cached_cost.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/markov/fundamental.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::descent {

CachedCostEvaluator::CachedCostEvaluator(const cost::CompositeCost& cost)
    : cost_(cost), owned_(std::in_place), cache_(&*owned_) {}

CachedCostEvaluator::CachedCostEvaluator(const cost::CompositeCost& cost,
                                         markov::ChainSolveCache& shared)
    : cost_(cost), cache_(&shared), initial_stats_(shared.stats()) {}

double CachedCostEvaluator::cost_at(const markov::TransitionMatrix& p) {
  util::Status updated;
  {
    obs::ScopedPhase phase("chain_solve");
    updated = cache_->update(p);
  }
  if (!updated.is_ok()) return std::numeric_limits<double>::infinity();
  try {
    obs::ScopedPhase phase("cost_terms");
    const double u = cost_.value(cache_->analysis());
    return std::isnan(u) ? std::numeric_limits<double>::infinity() : u;
  } catch (const std::exception&) {
    return std::numeric_limits<double>::infinity();
  }
}

util::StatusOr<const markov::ChainAnalysis*> CachedCostEvaluator::analyze(
    const markov::TransitionMatrix& p, markov::StationarySolver solver) {
  if (solver == markov::StationarySolver::kDirect) {
    // The gradient-step analysis is usually a cache hit (the iterate was
    // just cost-evaluated), so the direct stationary solve inside
    // try_analyze_chain no longer runs here. Consult its fault site
    // directly to keep the ladder's power-iteration demote rung reachable
    // under injection, matching stationary.cpp's try_direct.
    if (util::fault::fire(util::fault::Site::kStationary))
      return util::Status(util::StatusCode::kSingularMatrix,
                          "stationary solve failed (fault injection)");
    obs::ScopedPhase phase("chain_solve");
    util::Status updated = cache_->update(p);
    if (!updated.is_ok()) return updated;
    return &cache_->analysis();
  }
  obs::ScopedPhase phase("chain_solve");
  util::StatusOr<markov::ChainAnalysis> chain =
      markov::try_analyze_chain(p, solver);
  if (!chain.ok()) return chain.status();
  fallback_.emplace(std::move(*chain));
  return &*fallback_;
}

void record_cache_metrics(const markov::ChainSolveCache::Stats& stats) {
  if (obs::current_metrics() == nullptr) return;
  obs::count("chain_cache.full_solves", stats.full_solves);
  obs::count("chain_cache.sparse_full_solves", stats.sparse_full_solves);
  obs::count("chain_cache.exact_hits", stats.exact_hits);
  obs::count("chain_cache.row_updates", stats.incremental_row_updates);
}

}  // namespace mocos::descent
