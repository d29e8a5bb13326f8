// Bench-side spans around the cost layer. TermTracer wraps every term of a
// CompositeCost in a decorator that times value() and accumulate_partials()
// per term, counts calls, and keeps a small sample of probed matrices
// together with the composite cost the driver computed for them. Nothing
// under src/ changes: the decorated cost is handed to the public drivers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cost/composite_cost.hpp"

namespace perfbench {

class TermTracer {
 public:
  /// `source` must outlive the tracer and every cost built by decorated().
  /// Every `sample_every`-th composite evaluation on a thread is sampled,
  /// up to `max_samples` in total.
  TermTracer(const mocos::cost::CompositeCost& source, std::size_t sample_every,
             std::size_t max_samples);
  ~TermTracer();
  TermTracer(const TermTracer&) = delete;
  TermTracer& operator=(const TermTracer&) = delete;

  /// A cost with the source's terms, in the same order, each decorated.
  mocos::cost::CompositeCost decorated();

  struct Totals {
    std::vector<std::string> names;   // term names, in cost order
    std::vector<double> value_s;      // busy seconds in value(), per term
    std::vector<double> partials_s;   // busy seconds in partials, per term
    std::uint64_t value_calls = 0;    // composite evaluations
    std::uint64_t partials_calls = 0; // composite partials (gradients)
    /// Adds another tracer's totals, matching terms by name.
    void add(const Totals& other);
  };
  [[nodiscard]] Totals totals() const;

  struct Sample {
    mocos::markov::TransitionMatrix p;
    double cost;  // the composite value the driver saw, summed like
                  // CompositeCost::value does
  };
  [[nodiscard]] std::vector<Sample> samples() const;

 private:
  class TimedTerm;
  struct PerThread;
  PerThread& local();

  const mocos::cost::CompositeCost& source_;
  const std::size_t sample_every_;
  const std::size_t max_samples_;
  const std::uint64_t id_;  // distinguishes tracers in the thread-local cache
  std::atomic<std::size_t> samples_taken_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PerThread>> threads_;  // guarded by mu_
  std::vector<Sample> samples_;                      // guarded by mu_
};

/// Re-solves sampled probes through a fresh ChainSolveCache (the route every
/// probe takes), appending the solve and projected_cost_gradient times in
/// ms. Each re-solve must reproduce the cost the driver saw bit for bit;
/// every mismatch or failure appends a line to `errors`.
void retime_samples(const mocos::cost::CompositeCost& source,
                    const std::vector<TermTracer::Sample>& samples,
                    std::vector<double>& solve_ms,
                    std::vector<double>& gradient_ms,
                    std::vector<std::string>& errors);

}  // namespace perfbench
