// The two offline-planner workloads: a config goes through
// cli::build_problem and cli::run_optimization, as mocos_cli runs it.
//
//   city_adaptive     city:512 map, sparse support, adaptive descent, 1 thread
//                     (sparse solve ladder + dense gradient dominate)
//   paper_multistart  grid:4x4, eight V2 starts of V4 perturbed descent on 2
//                     workers (dense small-M chain solve + coverage term)
//
// The untraced run repeats set-up + solve for the run's seconds. The traced
// run solves once untraced as the reference, then hands a TermTracer-decorated
// cost to the public drivers with the same RNG streams, and checks that it
// reproduces the reference schedule bit for bit.
#include <cmath>
#include <limits>
#include <optional>

#include "common.hpp"
#include "src/cli/cli.hpp"
#include "src/descent/initializers.hpp"
#include "src/descent/multi_start.hpp"
#include "src/markov/incremental.hpp"
#include "src/obs/metrics.hpp"
#include "src/partition/block_solver.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/sparse/sparse_matrix.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using mocos::core::OptimizationOutcome;
using mocos::markov::TransitionMatrix;

struct OfflineSpec {
  std::string config_text;
  std::size_t jobs = 1;
  bool multistart = false;  // perturbed multi-start, else adaptive
};

OfflineSpec city_spec(std::uint64_t seed) {
  return {"topology = city:512:" + std::to_string(seed) +
              "\nradius = 0.1\nsupport_radius = 2.0\nalgorithm = adaptive\n"
              "iterations = 3\n",
          1, false};
}

OfflineSpec paper_spec(std::uint64_t seed) {
  // epsilon = 1e-6: with the paper's 1e-4 barrier the hidden quench polish
  // after each start runs anywhere from 0 to 400 iterations depending on the
  // seed, which doubles or halves the work from one seed to the next.
  return {"topology = grid:4x4\nepsilon = 1e-6\nalgorithm = perturbed\n"
          "iterations = 200\nstarts = 8\nseed = " +
              std::to_string(seed) + "\n",
          2, true};
}

/// Config parse plus Problem build: what the set-up metrics time.
struct Setup {
  mocos::util::Config config;
  mocos::core::Problem problem;
  double seconds;
};

Setup set_up(const std::string& text) {
  const auto t0 = Clock::now();
  mocos::util::Config config =
      mocos::util::Config::parse_string(text, "perfbench");
  mocos::core::Problem problem = mocos::cli::build_problem(config);
  return {std::move(config), std::move(problem),
          seconds_between(t0, Clock::now())};
}

/// The start matrix CoverageOptimizer::run picks for a single-start run.
TransitionMatrix single_start(const mocos::core::Problem& problem) {
  if (!problem.support().empty())
    return mocos::descent::support_uniform_start(problem.support());
  return mocos::descent::uniform_start(problem.num_pois());
}

/// U_eps at the single-start matrix, through the probe solve route.
double start_cost_of(const mocos::core::Problem& problem) {
  mocos::markov::ChainSolveCache cache;
  const mocos::util::Status st = cache.reset(single_start(problem));
  if (!st.is_ok()) throw mocos::util::StatusError(st);
  return problem.make_cost().value(cache.analysis());
}

/// Output checks that hold at every seed. Empty when all pass.
std::string check_outcome(const OfflineSpec& spec, const OptimizationOutcome& o,
                          double start_cost) {
  if (std::string bad = check_schedule(o.p); !bad.empty()) return bad;
  if (o.stop_reason == mocos::descent::StopReason::kNumericalFailure ||
      !o.recovery.empty())
    return "descent needed numerical recovery";
  if (!std::isfinite(o.penalized_cost)) return "U_eps is not finite";
  if (!spec.multistart && !(o.penalized_cost <= start_cost))
    return "adaptive descent ended above its start cost";
  return "";
}

Result run_untraced(const OfflineSpec& spec, const Options& opt) {
  Result r;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  const mocos::runtime::ExecutionContext ctx(spec.jobs);
  std::vector<double> setup_s, solve_s, latency_ms;
  std::string first_digest;
  double start_cost = std::numeric_limits<double>::quiet_NaN();
  double last_round = 0.0;
  do {
    Setup s = set_up(spec.config_text);
    if (!spec.multistart && std::isnan(start_cost))
      start_cost = start_cost_of(s.problem);
    const auto t0 = Clock::now();
    const OptimizationOutcome out =
        mocos::cli::run_optimization(s.config, s.problem, ctx);
    const double solve = seconds_between(t0, Clock::now());
    setup_s.push_back(s.seconds);
    solve_s.push_back(solve);
    latency_ms.push_back(1e3 * (s.seconds + solve));
    last_round = s.seconds + solve;

    ++r.attempted;
    std::string bad = check_outcome(spec, out, start_cost);
    const std::string digest = schedule_digest(out.p, out.penalized_cost);
    if (first_digest.empty()) first_digest = digest;
    if (bad.empty() && digest != first_digest)
      bad = "schedule differs from the first run's";
    if (!bad.empty()) {
      ++r.failed;
      r.fail(bad);
    }
  } while (Clock::now() +
               std::chrono::duration<double>(last_round) <
           deadline);
  // Set-up is cheap next to a solve: time more so its median is taken over
  // at least 25 set-ups. With five, city_adaptive's ~8 ms set-up spread by
  // 30% between runs.
  while (setup_s.size() < 25) setup_s.push_back(set_up(spec.config_text).seconds);

  r.digests["schedule"] = first_digest;
  r.set("setup_s", median(setup_s), "s");
  r.set("solve_s", median(solve_s), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  r.set("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  r.set("slo_met_frac",
        static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted),
        "ratio");
  // Plans per second one caller gets back to back.
  r.set("throughput_rps", 1e3 / quantile(latency_ms, 0.5), "1/s");
  r.info["runs"] = std::to_string(r.attempted);
  return r;
}

/// The traced solve: the decorated cost through the public drivers.
struct TracedRun {
  TransitionMatrix p;
  double cost = 0.0;
  std::size_t reported_iterations = 0;
  mocos::markov::ChainSolveCache::Stats chain;  // summed over every start
  std::vector<double> start_s;
  double wall_s = 0.0;
  std::uint64_t candidate_evals = 0;  // perturbed: one per stepped iteration
  std::vector<double> trace_costs;    // adaptive: cost after each iteration
};

TracedRun traced_adaptive(const mocos::cost::CompositeCost& cost,
                          const mocos::core::Problem& problem,
                          std::size_t iterations) {
  mocos::descent::DescentConfig cfg;
  cfg.step_policy = mocos::descent::StepPolicy::kLineSearch;
  cfg.max_iterations = iterations;
  cfg.keep_trace = true;  // records only; read for the monotonicity check
  const auto t0 = Clock::now();
  mocos::descent::DescentResult res =
      mocos::descent::SteepestDescent(cost, cfg).run(single_start(problem));
  TracedRun out{std::move(res.p), res.cost, res.iterations, res.chain_stats,
                {}, seconds_between(t0, Clock::now()), 0, {}};
  out.start_s.push_back(out.wall_s);
  for (const auto& rec : res.trace.records()) out.trace_costs.push_back(rec.cost);
  return out;
}

/// descent::multi_start_perturbed as CoverageOptimizer::run calls it, with
/// each start timed: same per-start RNG streams, same lowest-index reduction.
TracedRun traced_multistart(const mocos::cost::CompositeCost& cost,
                            const mocos::core::Problem& problem,
                            const mocos::util::Config& config,
                            const mocos::runtime::ExecutionContext& ctx) {
  const mocos::core::OptimizerOptions defaults;
  mocos::descent::PerturbedConfig pc;
  pc.base.step_policy = mocos::descent::StepPolicy::kLineSearch;
  pc.base.keep_trace = false;
  pc.noise_sigma = defaults.noise_sigma;
  pc.annealing_k = defaults.annealing_k;
  pc.max_iterations = config.get_size("iterations", 2000);
  pc.stall_limit = defaults.stall_limit;
  pc.keep_trace = true;  // records only; its length counts candidate evals
  const std::size_t starts = config.get_size("starts", 1);
  const std::size_t m = problem.num_pois();

  const mocos::descent::PerturbedDescent driver(cost, pc);
  mocos::util::Rng rng(config.get_size("seed", 1));
  const mocos::util::Rng streams(rng.stream_base());
  std::vector<std::optional<mocos::descent::PerturbedResult>> results(starts);
  std::vector<double> start_s(starts, 0.0);
  const auto t0 = Clock::now();
  mocos::runtime::parallel_for(ctx, starts, [&](std::size_t k) {
    const auto s0 = Clock::now();
    mocos::util::Rng task_rng = streams.stream(k);
    const TransitionMatrix start = mocos::descent::random_start(m, task_rng);
    results[k] = driver.run(start, task_rng);
    start_s[k] = seconds_between(s0, Clock::now());
  });
  const double wall = seconds_between(t0, Clock::now());

  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  TracedRun out{TransitionMatrix::uniform(m), 0.0, 0, {}, start_s, wall, 0, {}};
  for (std::size_t k = 0; k < starts; ++k) {
    const auto& res = *results[k];
    out.chain.add(res.chain_stats);
    out.candidate_evals += res.trace.records().size();
    const double c = std::isfinite(res.best_cost)
                         ? res.best_cost
                         : std::numeric_limits<double>::infinity();
    if (c < best_cost) {
      best_cost = c;
      best = k;
    }
  }
  out.p = results[best]->best_p;
  out.cost = results[best]->best_cost;
  out.reported_iterations = results[best]->iterations;
  return out;
}

Result run_traced(const OfflineSpec& spec) {
  Result r;
  const mocos::runtime::ExecutionContext ctx(spec.jobs);

  std::vector<double> build_s;
  for (int i = 0; i < 3; ++i) build_s.push_back(set_up(spec.config_text).seconds);
  Setup s = set_up(spec.config_text);
  build_s.push_back(s.seconds);

  // Untraced reference solve.
  auto t0 = Clock::now();
  const OptimizationOutcome ref =
      mocos::cli::run_optimization(s.config, s.problem, ctx);
  const double ref_s = seconds_between(t0, Clock::now());
  ++r.attempted;
  const double start_cost =
      spec.multistart ? 0.0 : start_cost_of(s.problem);
  if (std::string bad = check_outcome(spec, ref, start_cost); !bad.empty())
    r.fail(bad);
  r.digests["schedule"] = schedule_digest(ref.p, ref.penalized_cost);

  // Traced solve, with the program's own counters collected alongside.
  const mocos::cost::CompositeCost source = s.problem.make_cost();
  const std::size_t sample_every = spec.multistart ? 4099 : 23;
  TermTracer tracer(source, sample_every, 7);
  const mocos::cost::CompositeCost decorated = tracer.decorated();
  mocos::obs::MetricsRegistry registry;
  const TracedRun run = [&] {
    mocos::obs::ScopedMetrics install(&registry);
    return spec.multistart
               ? traced_multistart(decorated, s.problem, s.config, ctx)
               : traced_adaptive(decorated, s.problem,
                                 s.config.get_size("iterations", 2000));
  }();
  const mocos::obs::MetricsSnapshot snap = registry.snapshot();
  const TermTracer::Totals tot = tracer.totals();

  // Fidelity: the traced program is the untraced one.
  if (schedule_digest(run.p, run.cost) != r.digests["schedule"])
    r.fail("traced schedule differs from the untraced run's");
  for (std::size_t i = 1; i < run.trace_costs.size(); ++i)
    if (run.trace_costs[i] > run.trace_costs[i - 1])
      r.fail("adaptive cost rose at iteration " + std::to_string(i + 1));

  // Count reconciliation against the program's own counters.
  const std::uint64_t full = snap.counter_value("chain_cache.full_solves");
  const std::uint64_t hits = snap.counter_value("chain_cache.exact_hits");
  const std::uint64_t rows = snap.counter_value("chain_cache.row_updates");
  const std::uint64_t probes = snap.counter_value("descent.line_search.probes");
  const std::uint64_t iters = snap.counter_value("descent.iterations");
  const std::uint64_t runs = snap.counter_value("descent.runs") +
                             snap.counter_value("descent.perturbed.runs");
  if (full != run.chain.full_solves || hits != run.chain.exact_hits ||
      rows != run.chain.incremental_row_updates)
    r.fail("chain_cache counters disagree with the outcome's chain_stats");
  if (tot.value_calls + tot.partials_calls != full + hits + rows)
    r.fail("cost evaluations + gradients (" +
           std::to_string(tot.value_calls + tot.partials_calls) +
           ") != chain cache updates (" + std::to_string(full + hits + rows) +
           ")");
  if (tot.value_calls != probes + runs + run.candidate_evals)
    r.fail("cost evaluations (" + std::to_string(tot.value_calls) +
           ") != probes + starts + candidates (" +
           std::to_string(probes + runs + run.candidate_evals) + ")");

  // Re-time the sampled probes through the probe solve route (a fresh
  // ChainSolveCache full solve) and the gradient; each must reproduce the
  // cost the driver saw, bit for bit.
  const std::vector<TermTracer::Sample> sample = tracer.samples();
  if (sample.empty()) r.fail("no probe was sampled");
  std::vector<double> solve_ms, gradient_ms;
  retime_samples(source, sample, solve_ms, gradient_ms, r.errors);
  const bool sparse_path = run.chain.sparse_full_solves > 0;
  std::size_t bandwidth = 0;
  if (sparse_path && !sample.empty()) {
    const auto& m = sample.front().p.matrix();
    mocos::partition::SparseSolveStats st;
    const mocos::linalg::Vector c(m.rows(), 1.0 / static_cast<double>(m.rows()));
    (void)mocos::partition::try_sparse_resolvent(
        mocos::sparse::SparseMatrix::from_dense(m), c, {}, {}, &st);
    bandwidth = st.bandwidth;
  }

  if (!r.errors.empty()) r.failed = 1;
  r.set("sensing.problem_build_s", median(build_s), "s");
  r.set("markov.full_solves", static_cast<double>(full), "count");
  r.set("markov.exact_hits", static_cast<double>(hits), "count");
  r.set("markov.row_updates", static_cast<double>(rows), "count");
  r.set("markov.solve_ms", sparse_path ? 0.0 : median(solve_ms), "ms");
  r.set("partition.sparse_solves",
        static_cast<double>(run.chain.sparse_full_solves), "count");
  r.set("partition.sparse_solve_ms", sparse_path ? median(solve_ms) : 0.0, "ms");
  r.set("partition.bandwidth", static_cast<double>(bandwidth), "count");
  r.set("cost.value_calls", static_cast<double>(tot.value_calls), "count");
  double value_busy = 0.0, partials_busy = 0.0;
  for (std::size_t i = 0; i < tot.names.size(); ++i) {
    r.set("cost.term." + tot.names[i] + ".ms", 1e3 * tot.value_s[i], "ms");
    value_busy += tot.value_s[i];
    partials_busy += tot.partials_s[i];
  }
  r.set("cost.partials_ms", 1e3 * partials_busy, "ms");
  r.set("cost.gradient_ms", median(gradient_ms), "ms");
  r.set("descent.iterations", static_cast<double>(iters), "count");
  r.set("descent.reported_iterations",
        static_cast<double>(run.reported_iterations), "count");
  r.set("descent.probes", static_cast<double>(probes), "count");
  r.set("descent.probes_per_iter",
        iters == 0 ? 0.0 : static_cast<double>(probes) / static_cast<double>(iters),
        "count");
  double busy = 0.0;
  for (double x : run.start_s) busy += x;
  r.set("descent.own_s",
        busy - static_cast<double>(full) * median(solve_ms) / 1e3 - value_busy -
            static_cast<double>(tot.partials_calls) * median(gradient_ms) / 1e3,
        "s");
  r.set("runtime.start_s.p50", median(run.start_s), "s");
  r.set("runtime.start_s.max", quantile(run.start_s, 1.0), "s");
  r.set("runtime.parallel_efficiency",
        busy / (run.wall_s * static_cast<double>(ctx.effective_jobs())), "ratio");
  r.set("trace.overhead_ratio", run.wall_s / ref_s, "ratio");
  // The serve layer is not on this workload's path.
  for (const char* name : {"serve.service_ms.p50", "serve.service_ms.p99",
                           "serve.wait_ms.p50", "serve.wait_ms.p99",
                           "serve.generator_lag_ms"})
    r.set(name, 0.0, "ms");
  r.set("serve.peak_depth", 0.0, "count");
  r.set("serve.warm_frac", 0.0, "ratio");
  r.set("serve.solves_per_request", 0.0, "count");
  r.info["untraced_solve_s"] = std::to_string(ref_s);
  return r;
}

}  // namespace

Result run_city_adaptive(const Options& opt) {
  const OfflineSpec spec = city_spec(opt.seed);
  return opt.trace ? run_traced(spec) : run_untraced(spec, opt);
}

Result run_paper_multistart(const Options& opt) {
  const OfflineSpec spec = paper_spec(opt.seed);
  return opt.trace ? run_traced(spec) : run_untraced(spec, opt);
}

}  // namespace perfbench
