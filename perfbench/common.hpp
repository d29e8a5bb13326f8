// Shared plumbing of the mocos benchmark: clocks, order statistics, the
// result record every workload fills in, digests and output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/markov/transition_matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of `v`;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// FNV-1a 64 over raw bytes, chained through `h`; printed as 16 hex digits.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t h);

/// Digest of a schedule's raw entries followed by the bits of its cost.
std::string schedule_digest(const mocos::markov::TransitionMatrix& p,
                            double cost);

/// Empty when `p` is finite, non-negative and row-stochastic to 1e-9;
/// otherwise a one-line reason.
std::string check_schedule(const mocos::markov::TransitionMatrix& p);

/// What one workload run reports. `metrics` maps a name to (value, unit);
/// `digests` are compared against the recorded ones at the default seed by
/// run.py; `errors` lists every failed output check (one line each).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> digests;
  std::map<std::string, std::string> info;  // run metadata, strings only
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) { errors.push_back(why); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Result run_city_adaptive(const Options& opt);
Result run_paper_multistart(const Options& opt);
Result run_serve_mixed(const Options& opt);

}  // namespace perfbench
