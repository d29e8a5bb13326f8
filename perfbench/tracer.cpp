#include "tracer.hpp"

#include <cmath>
#include <cstring>
#include <optional>

#include "common.hpp"
#include "src/cost/gradient.hpp"
#include "src/markov/incremental.hpp"

namespace perfbench {

namespace {
std::atomic<std::uint64_t> next_tracer_id{1};
}  // namespace

/// One thread's counters. Only its own thread writes it while the traced
/// drivers run; totals() reads it after they have joined.
struct TermTracer::PerThread {
  explicit PerThread(std::size_t terms)
      : value_s(terms, 0.0), partials_s(terms, 0.0) {}
  std::vector<double> value_s;
  std::vector<double> partials_s;
  std::uint64_t value_calls = 0;
  std::uint64_t partials_calls = 0;
  // The composite evaluation in progress: CompositeCost::value calls the
  // terms in order on one thread, so term 0 opens it.
  double running_sum = 0.0;
  std::optional<mocos::markov::TransitionMatrix> pending;
};

class TermTracer::TimedTerm : public mocos::cost::CostTerm {
 public:
  TimedTerm(TermTracer& tracer, const mocos::cost::CostTerm& inner,
            std::size_t index, std::size_t count)
      : tracer_(tracer), inner_(inner), index_(index), last_(index + 1 == count) {}

  std::string name() const override { return inner_.name(); }

  double value(const mocos::markov::ChainAnalysis& chain) const override {
    PerThread& t = tracer_.local();
    if (index_ == 0) {
      t.running_sum = 0.0;
      t.pending.reset();
      if (t.value_calls % tracer_.sample_every_ == 0 &&
          tracer_.samples_taken_.fetch_add(1) < tracer_.max_samples_)
        t.pending.emplace(chain.p);
      ++t.value_calls;
    }
    const auto t0 = Clock::now();
    const double v = inner_.value(chain);
    t.value_s[index_] += seconds_between(t0, Clock::now());
    t.running_sum += v;
    if (t.pending && (last_ || std::isinf(t.running_sum))) {
      if (std::isfinite(t.running_sum)) {
        std::lock_guard<std::mutex> lock(tracer_.mu_);
        tracer_.samples_.push_back({std::move(*t.pending), t.running_sum});
      }
      t.pending.reset();
    }
    return v;
  }

  void accumulate_partials(const mocos::markov::ChainAnalysis& chain,
                           mocos::cost::Partials& out) const override {
    PerThread& t = tracer_.local();
    if (index_ == 0) ++t.partials_calls;
    const auto t0 = Clock::now();
    inner_.accumulate_partials(chain, out);
    t.partials_s[index_] += seconds_between(t0, Clock::now());
  }

 private:
  TermTracer& tracer_;
  const mocos::cost::CostTerm& inner_;
  const std::size_t index_;
  const bool last_;
};

TermTracer::TermTracer(const mocos::cost::CompositeCost& source,
                       std::size_t sample_every, std::size_t max_samples)
    : source_(source),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      max_samples_(max_samples),
      id_(next_tracer_id.fetch_add(1)) {}

TermTracer::~TermTracer() = default;

mocos::cost::CompositeCost TermTracer::decorated() {
  mocos::cost::CompositeCost out;
  const std::size_t n = source_.num_terms();
  for (std::size_t i = 0; i < n; ++i)
    out.add(std::make_unique<TimedTerm>(*this, source_.term(i), i, n));
  return out;
}

TermTracer::PerThread& TermTracer::local() {
  thread_local std::uint64_t cached_id = 0;
  thread_local PerThread* cached = nullptr;
  if (cached_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<PerThread>(source_.num_terms()));
    cached = threads_.back().get();
    cached_id = id_;
  }
  return *cached;
}

void TermTracer::Totals::add(const Totals& other) {
  for (std::size_t j = 0; j < other.names.size(); ++j) {
    std::size_t i = 0;
    while (i < names.size() && names[i] != other.names[j]) ++i;
    if (i == names.size()) {
      names.push_back(other.names[j]);
      value_s.push_back(0.0);
      partials_s.push_back(0.0);
    }
    value_s[i] += other.value_s[j];
    partials_s[i] += other.partials_s[j];
  }
  value_calls += other.value_calls;
  partials_calls += other.partials_calls;
}

TermTracer::Totals TermTracer::totals() const {
  Totals out;
  const std::size_t n = source_.num_terms();
  for (std::size_t i = 0; i < n; ++i) out.names.push_back(source_.term(i).name());
  out.value_s.assign(n, 0.0);
  out.partials_s.assign(n, 0.0);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < n; ++i) {
      out.value_s[i] += t->value_s[i];
      out.partials_s[i] += t->partials_s[i];
    }
    out.value_calls += t->value_calls;
    out.partials_calls += t->partials_calls;
  }
  return out;
}

std::vector<TermTracer::Sample> TermTracer::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

void retime_samples(const mocos::cost::CompositeCost& source,
                    const std::vector<TermTracer::Sample>& samples,
                    std::vector<double>& solve_ms,
                    std::vector<double>& gradient_ms,
                    std::vector<std::string>& errors) {
  for (const TermTracer::Sample& probe : samples) {
    mocos::markov::ChainSolveCache cache;
    auto t0 = Clock::now();
    const mocos::util::Status st = cache.reset(probe.p);
    solve_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    if (!st.is_ok()) {
      errors.push_back("sampled probe no longer solves: " + st.to_string());
      continue;
    }
    const double cost = source.value(cache.analysis());
    if (std::memcmp(&cost, &probe.cost, sizeof cost) != 0)
      errors.push_back("re-solved probe does not reproduce the driver's cost");
    t0 = Clock::now();
    const mocos::linalg::Matrix g =
        mocos::cost::projected_cost_gradient(source, cache.analysis());
    gradient_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    if (!std::isfinite(g(0, 0))) errors.push_back("gradient is not finite");
  }
}

}  // namespace perfbench
