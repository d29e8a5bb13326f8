// serve_mixed: mocos_serve in process (serve::serve on 2 workers) under a
// warm/cold request mix. 80% of requests are warm-lane (grid:3x3, adaptive,
// 60 iterations, spread over 4 cache_key lanes with warm_start); 20% are cold
// (grid 2x2, 2x3, 3x3, 4x3 or 4x2, no key). Each round runs two sessions:
//
//   open loop   priming (one closed-loop request per lane), then requests
//               released on a fixed 100 req/s schedule; each is timed from
//               when it was due to when its response line was written;
//   saturation  priming, then every request released at once into a queue
//               that never sheds; completed requests per second of wall time.
//
// Requests reach the server through a streambuf that blocks the server's
// reader until each line is due, and responses are time-stamped by the
// streambuf they are written to, so the program sees exactly the NDJSON
// streams mocos_serve reads and writes.
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <istream>
#include <iterator>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "common.hpp"
#include "src/cli/cli.hpp"
#include "src/descent/initializers.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"
#include "src/util/rng.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 2;
constexpr std::size_t kLanes = 4;
// About 10% of the 2-worker capacity (~900 req/s on a 4-vCPU host). The
// emitter writes responses in arrival order, so a slow cold request holds
// back every response that arrives while it runs. At 400 req/s that held
// back so many that the median sat on the slope of the blocked tail, and
// host noise moved it by 75% from run to run.
constexpr double kOpenRate = 100.0;  // req/s
// Short rounds: a run holds several, so the set-up and throughput medians
// see more than one stretch of host load.
constexpr std::size_t kOpenRequests = 500;
constexpr std::size_t kSaturationRequests = 500;
constexpr double kSloMs = 25.0;
constexpr std::size_t kIterations = 60;
/// A generator whose p99 release lag reaches the latency limit measured its
/// own scheduling, not the server: such a run is reported as failed.
constexpr double kMaxGeneratorLagMs = kSloMs;

// ---------------------------------------------------------------- streams

/// Input side: serve()'s reader blocks in underflow() until the next request
/// line is due, or gets EOF after close(). Lines are released by the reader
/// thread itself, so the open loop adds no hand-off between threads.
class LineFeed : public std::streambuf {
 public:
  /// Queues `text` for release at `due`; the default releases it at once.
  void push(std::string text, Clock::time_point due = {}) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      chunks_.push_back({due, std::move(text)});
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// Milliseconds from each scheduled line's due time to its release.
  std::vector<double> lag_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return lag_ms_;
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!chunks_.empty()) {
        const Clock::time_point due = chunks_.front().due;
        if (due == Clock::time_point{}) break;
        const Clock::time_point now = Clock::now();
        if (now >= due) {
          lag_ms_.push_back(1e3 * seconds_between(due, now));
          break;
        }
        cv_.wait_until(lock, due);
      } else if (closed_) {
        return traits_type::eof();
      } else {
        cv_.wait(lock);
      }
    }
    current_ = std::move(chunks_.front().text);
    chunks_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  struct Chunk {
    Clock::time_point due;
    std::string text;
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Chunk> chunks_;
  std::vector<double> lag_ms_;
  bool closed_ = false;
  std::string current_;  // only the reader thread touches it
};

/// Output side: unbuffered, so every response line is time-stamped the
/// moment its newline is written.
class ResponseTap : public std::streambuf {
 public:
  struct Line {
    Clock::time_point at;
    std::string text;
  };

  /// Blocks until `n` lines were written or the server has returned.
  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return lines_.size() >= n || closed_; });
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
  }
  std::vector<Line> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] != '\n') {
        partial_ += s[i];
        continue;
      }
      const auto now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        lines_.push_back({now, std::move(partial_)});
      }
      partial_.clear();
      cv_.notify_all();
    }
    return n;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Line> lines_;
  bool closed_ = false;
  std::string partial_;  // written only under serve's emit lock
};

/// One serve::serve session on its own thread.
class Session {
 public:
  explicit Session(const mocos::serve::ServeOptions& options)
      : options_(options), thread_([this] { run(); }) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    if (thread_.joinable()) {
      feed_.close();
      thread_.join();
    }
  }

  void push(std::string text, Clock::time_point due = {}) {
    feed_.push(std::move(text), due);
  }
  ResponseTap& tap() { return tap_; }
  LineFeed& feed() { return feed_; }

  /// Closes the request stream and waits for the server to drain.
  mocos::serve::ServeReport finish() {
    feed_.close();
    thread_.join();
    if (!error_.empty()) throw std::runtime_error("serve: " + error_);
    return report_;
  }

 private:
  void run() {
    std::istream in(&feed_);
    std::ostream out(&tap_);
    try {
      report_ = mocos::serve::serve(in, out, options_);
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    tap_.close();
  }

  mocos::serve::ServeOptions options_;
  LineFeed feed_;
  ResponseTap tap_;
  mocos::serve::ServeReport report_;
  std::string error_;
  std::thread thread_;  // last: starts after every member it uses
};

// --------------------------------------------------------------- requests

struct Request {
  std::string id;
  std::string config;
  int lane = -1;  // -1: cold
  std::string line;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n') out += "\\n";
    else if (c == '"' || c == '\\') (out += '\\') += c;
    else out += c;
  }
  return out;
}

Request make_request(std::string id, std::string config, int lane) {
  Request r{std::move(id), std::move(config), lane, ""};
  r.line = "{\"id\": \"" + r.id + "\", \"config\": \"" + json_escape(r.config) +
           "\"";
  if (lane >= 0)
    r.line += ", \"cache_key\": \"lane" + std::to_string(lane) +
              "\", \"warm_start\": true";
  r.line += "}\n";
  return r;
}

struct Workload {
  std::vector<Request> priming;     // one per lane
  std::vector<Request> open;        // the open-loop schedule
  std::vector<Request> saturation;  // released at once
};

/// The seed sets the arrival order. The mix is stratified: every block of
/// 50 requests holds 10 warm requests per lane and 10 cold ones (three 2x2,
/// two each of 2x3, 3x3 and 4x3, one 4x2), shuffled, so no seed gets a
/// heavier mix or longer runs of cold requests than another by chance.
///
/// The slowest shape, 4x2 (~40 ms), is 2% of requests, so the latency p99 is
/// about the median 4x2 request. Without it the p99 fell among 9-14 ms
/// requests, where a few ms of host preemption decide the order, and it
/// followed the host's steal time from run to run.
Workload make_workload(std::uint64_t seed) {
  static const char* const kColdShapes[] = {"2x2", "2x3", "3x3", "4x3", "4x2"};
  static const int kColdPerBlock[] = {3, 2, 2, 2, 1};
  constexpr std::size_t kWarmPerBlock = 40;
  auto config = [](const std::string& head) {
    return head + "\nalgorithm = adaptive\niterations = " +
           std::to_string(kIterations) + "\n";
  };
  std::vector<std::string> lane_config;
  for (std::size_t j = 0; j < kLanes; ++j)
    lane_config.push_back(config("topology = grid:3x3\nradius = 0." +
                                 std::to_string(15 + 5 * j)));

  mocos::util::Rng rng(seed);
  auto stream = [&](const std::string& prefix, std::size_t n) {
    std::vector<Request> out;
    std::vector<int> block;  // lane index, or -1 - shape index for cold
    while (out.size() < n) {
      if (block.empty()) {
        for (std::size_t k = 0; k < kWarmPerBlock; ++k)
          block.push_back(static_cast<int>(k % kLanes));
        for (int k = 0; k < static_cast<int>(std::size(kColdShapes)); ++k)
          for (int c = 0; c < kColdPerBlock[k]; ++c) block.push_back(-1 - k);
        for (std::size_t k = block.size(); k > 1; --k)
          std::swap(block[k - 1], block[rng.index(k)]);
      }
      const int slot = block.back();
      block.pop_back();
      const std::string id = prefix + std::to_string(out.size());
      out.push_back(
          slot >= 0
              ? make_request(id, lane_config[static_cast<std::size_t>(slot)], slot)
              : make_request(id,
                             config(std::string("topology = grid:") +
                                    kColdShapes[-1 - slot]),
                             -1));
    }
    return out;
  };
  Workload w;
  for (std::size_t j = 0; j < kLanes; ++j)
    w.priming.push_back(make_request("prime" + std::to_string(j),
                                     lane_config[j], static_cast<int>(j)));
  w.open = stream("open", kOpenRequests);
  w.saturation = stream("sat", kSaturationRequests);
  return w;
}

// -------------------------------------------------------------- responses

/// The fields of one response line the benchmark reads.
struct Parsed {
  std::uint64_t seq = 0;
  std::string id;
  int code = -1;
  double cost = 0.0;
  double elapsed_ms = 0.0;
  bool warm = false;
  std::uint64_t full_solves = 0;
  std::uint64_t iterations = 0;
  std::string stripped;  // the line without its elapsed_ms field
};

/// Text after `"key": ` in a response line, or npos.
std::size_t field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(k);
  return at == std::string::npos ? at : at + k.size();
}

Parsed parse_response(const std::string& line) {
  Parsed p;
  if (std::size_t at = field(line, "seq"); at != std::string::npos)
    p.seq = std::strtoull(line.c_str() + at, nullptr, 10);
  if (std::size_t at = field(line, "id"); at != std::string::npos)
    p.id = line.substr(at + 1, line.find('"', at + 1) - at - 1);
  if (std::size_t at = field(line, "code"); at != std::string::npos)
    p.code = std::atoi(line.c_str() + at);
  if (std::size_t at = field(line, "cost"); at != std::string::npos)
    p.cost = std::strtod(line.c_str() + at, nullptr);
  if (std::size_t at = field(line, "warm_started"); at != std::string::npos)
    p.warm = line.compare(at, 4, "true") == 0;
  if (std::size_t at = field(line, "cache_full_solves"); at != std::string::npos)
    p.full_solves = std::strtoull(line.c_str() + at, nullptr, 10);
  if (std::size_t at = field(line, "iterations"); at != std::string::npos)
    p.iterations = std::strtoull(line.c_str() + at, nullptr, 10);
  p.stripped = line;
  const std::size_t key = line.find(", \"elapsed_ms\": ");
  if (key != std::string::npos) {
    const std::size_t at = key + std::strlen(", \"elapsed_ms\": ");
    p.elapsed_ms = std::strtod(line.c_str() + at, nullptr);
    p.stripped.erase(key, line.find('}', at) - key);
  }
  return p;
}

// ------------------------------------------------------------------ rounds

/// Per-request counters from the program's own registry (traced rounds).
struct RequestCounters {
  std::mutex mu;
  std::uint64_t iterations = 0, probes = 0, full_solves = 0, exact_hits = 0,
                row_updates = 0;
};

struct Round {
  double open_setup_s = 0.0, saturation_setup_s = 0.0;
  std::vector<double> latency_ms, service_ms, lag_ms;  // open loop
  std::vector<Parsed> open_responses;                  // priming + open loop
  std::size_t open_ok_within_slo = 0;
  std::size_t backlog_end = 0;
  double open_span_s = 0.0;  // first due time to last response
  std::size_t open_peak_depth = 0;  // admission-gate high-water mark
  double throughput_rps = 0.0;
  std::vector<double> saturation_service_ms;
  double saturation_wall_s = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t logged_full_solves = 0;  // summed over both sessions' logs
  std::uint64_t logged_iterations = 0;
  std::vector<std::string> errors;
};

mocos::serve::ServeOptions serve_options(RequestCounters* counters) {
  mocos::serve::ServeOptions o;
  o.jobs = kJobs;
  o.queue_capacity = 4 * (kOpenRequests + kSaturationRequests);
  o.timings = true;
  if (counters != nullptr) {
    o.on_request_metrics = [counters](const mocos::serve::Response&,
                                      const mocos::obs::MetricsSnapshot& m) {
      std::lock_guard<std::mutex> lock(counters->mu);
      counters->iterations += m.counter_value("descent.iterations");
      counters->probes += m.counter_value("descent.line_search.probes");
      counters->full_solves += m.counter_value("chain_cache.full_solves");
      counters->exact_hits += m.counter_value("chain_cache.exact_hits");
      counters->row_updates += m.counter_value("chain_cache.row_updates");
    };
  }
  return o;
}

/// Sends one closed-loop request per lane; returns the seconds it took.
double prime(Session& session, const Workload& w) {
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < w.priming.size(); ++j) {
    session.push(w.priming[j].line);
    session.tap().wait_for(j + 1);
  }
  return seconds_between(t0, Clock::now());
}

/// Checks a session's response log: one response per request, in order,
/// with the request's id and code 0. Folds the stripped lines into `digest`.
void check_log(const std::vector<ResponseTap::Line>& lines,
               const std::vector<const Request*>& sent, Round& round,
               std::vector<Parsed>* keep) {
  if (lines.size() != sent.size())
    round.errors.push_back(std::to_string(lines.size()) + " responses to " +
                           std::to_string(sent.size()) + " requests");
  for (std::size_t i = 0; i < lines.size() && i < sent.size(); ++i) {
    Parsed p = parse_response(lines[i].text);
    if (p.seq != i || p.id != sent[i]->id)
      round.errors.push_back("response " + std::to_string(i) +
                             " is out of order or answers another request");
    else if (p.code != 0)
      round.errors.push_back("request " + p.id + " failed: " + lines[i].text);
    round.digest =
        fnv1a(p.stripped.data(), p.stripped.size(), round.digest);
    round.logged_full_solves += p.full_solves;
    round.logged_iterations += p.iterations;
    if (keep != nullptr) keep->push_back(std::move(p));
  }
}

Round run_round(const Workload& w, RequestCounters* counters) {
  Round round;
  {
    Session session(serve_options(counters));
    round.open_setup_s = prime(session, w);
    const std::size_t n = w.open.size();
    const auto first_due = Clock::now() + std::chrono::milliseconds(2);
    std::vector<Clock::time_point> due(n);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = first_due + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / kOpenRate));
      session.push(w.open[i].line, due[i]);
    }
    std::this_thread::sleep_until(due[n - 1]);
    round.backlog_end = n + w.priming.size() - session.tap().count();
    session.tap().wait_for(w.priming.size() + n);
    round.open_peak_depth = session.finish().peak_depth;
    round.lag_ms = session.feed().lag_ms();

    std::vector<const Request*> sent;
    for (const Request& r : w.priming) sent.push_back(&r);
    for (const Request& r : w.open) sent.push_back(&r);
    const std::vector<ResponseTap::Line> lines = session.tap().lines();
    check_log(lines, sent, round, &round.open_responses);
    for (std::size_t i = 0; i < n && w.priming.size() + i < lines.size(); ++i) {
      const Parsed& p = round.open_responses[w.priming.size() + i];
      const double latency =
          1e3 * seconds_between(due[i], lines[w.priming.size() + i].at);
      round.latency_ms.push_back(latency);
      round.service_ms.push_back(p.elapsed_ms);
      if (p.code == 0 && latency <= kSloMs) ++round.open_ok_within_slo;
    }
    if (!lines.empty())
      round.open_span_s = seconds_between(first_due, lines.back().at);
  }
  {
    Session session(serve_options(counters));
    round.saturation_setup_s = prime(session, w);
    std::string burst;
    for (const Request& r : w.saturation) burst += r.line;
    const auto t0 = Clock::now();
    session.push(std::move(burst));
    session.tap().wait_for(w.priming.size() + w.saturation.size());
    (void)session.finish();
    const std::vector<ResponseTap::Line> lines = session.tap().lines();
    if (!lines.empty()) {
      round.saturation_wall_s = seconds_between(t0, lines.back().at);
      round.throughput_rps =
          static_cast<double>(w.saturation.size()) / round.saturation_wall_s;
    }

    std::vector<const Request*> sent;
    for (const Request& r : w.priming) sent.push_back(&r);
    for (const Request& r : w.saturation) sent.push_back(&r);
    std::vector<Parsed> parsed;
    check_log(lines, sent, round, &parsed);
    for (std::size_t i = w.priming.size(); i < parsed.size(); ++i)
      round.saturation_service_ms.push_back(parsed[i].elapsed_ms);
  }
  return round;
}

// ------------------------------------------------------------------ replay

/// Replays requests outside the server through the public drivers with a
/// TermTracer-decorated cost, as the server runs them: keyed requests share
/// their lane's ChainSolveCache and warm-start from its last solution, cold
/// ones get a private cache, seeds come from the request id. Each replayed
/// run must end at the cost its response reported, bit for bit.
struct Replay {
  TermTracer::Totals totals;
  std::vector<double> build_s, solve_ms, gradient_ms;
  double busy_s = 0.0;
  std::uint64_t full_solves = 0;
  std::vector<std::string> errors;
};

Replay replay(const std::vector<const Request*>& requests,
              const std::vector<Parsed>& responses, std::size_t sampled) {
  struct Lane {
    mocos::markov::ChainSolveCache cache;
    std::optional<mocos::markov::TransitionMatrix> last;
  };
  std::vector<Lane> lanes(kLanes);
  Replay out;
  for (std::size_t i = 0; i < requests.size() && i < responses.size(); ++i) {
    const Request& req = *requests[i];
    const auto b0 = Clock::now();
    const mocos::util::Config config =
        mocos::util::Config::parse_string(req.config, "request:" + req.id);
    const mocos::core::Problem problem = mocos::cli::build_problem(config);
    out.build_s.push_back(seconds_between(b0, Clock::now()));

    const mocos::cost::CompositeCost source = problem.make_cost();
    TermTracer tracer(source, 1, i < sampled ? 1 : 0);
    const mocos::cost::CompositeCost decorated = tracer.decorated();
    Lane* lane = req.lane >= 0 ? &lanes[static_cast<std::size_t>(req.lane)] : nullptr;
    mocos::descent::DescentConfig cfg;
    cfg.step_policy = mocos::descent::StepPolicy::kLineSearch;
    cfg.max_iterations = config.get_size("iterations", 2000);
    cfg.keep_trace = false;
    if (lane != nullptr) cfg.shared_cache = &lane->cache;
    // CoverageOptimizer's start: the lane's last solution when it fits,
    // else uniform, or V2-random from the request's seed.
    mocos::util::Rng rng(
        config.get_size("seed", mocos::serve::seed_from_request_id(req.id)));
    const std::size_t m = problem.num_pois();
    const mocos::markov::TransitionMatrix start =
        lane != nullptr && lane->last && lane->last->size() == m
            ? *lane->last
            : config.get_bool("random_start", false)
                  ? mocos::descent::random_start(m, rng)
                  : mocos::descent::uniform_start(m);

    const auto t0 = Clock::now();
    mocos::descent::DescentResult res =
        mocos::descent::SteepestDescent(decorated, cfg).run(start);
    out.busy_s += seconds_between(t0, Clock::now());
    out.full_solves += res.chain_stats.full_solves;
    if (std::memcmp(&res.cost, &responses[i].cost, sizeof res.cost) != 0)
      out.errors.push_back("replay of " + req.id +
                           " does not reproduce the served cost");
    if (lane != nullptr) lane->last = std::move(res.p);
    out.totals.add(tracer.totals());
    retime_samples(source, tracer.samples(), out.solve_ms, out.gradient_ms,
                   out.errors);
  }
  return out;
}

// ------------------------------------------------------------------ results

/// Every request of a round is one attempted operation; each failed check
/// counts once.
void count_failures(Result& r, const Round& round, const Workload& w) {
  for (const std::string& e : round.errors) r.fail(e);
  r.attempted +=
      2 * w.priming.size() + w.open.size() + w.saturation.size();
  r.failed += round.errors.size();
}

Result run_untraced(const Options& opt, const Workload& w) {
  Result r;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  std::vector<double> setup_s, latency_ms, service_ms, lag_ms, throughput;
  std::size_t sent = 0, within_slo = 0, backlog = 0;
  double offered = 0.0, achieved = 0.0;
  std::uint64_t first_digest = 0;
  double last_round = 0.0;
  do {
    const auto t0 = Clock::now();
    const Round round = run_round(w, nullptr);
    last_round = seconds_between(t0, Clock::now());
    count_failures(r, round, w);
    if (first_digest == 0) first_digest = round.digest;
    if (round.digest != first_digest) {
      r.fail("response log differs from the first round's");
      ++r.failed;
    }
    setup_s.push_back(round.open_setup_s);
    setup_s.push_back(round.saturation_setup_s);
    latency_ms.insert(latency_ms.end(), round.latency_ms.begin(), round.latency_ms.end());
    service_ms.insert(service_ms.end(), round.service_ms.begin(), round.service_ms.end());
    lag_ms.insert(lag_ms.end(), round.lag_ms.begin(), round.lag_ms.end());
    throughput.push_back(round.throughput_rps);
    sent += w.open.size();
    within_slo += round.open_ok_within_slo;
    backlog = std::max(backlog, round.backlog_end);
    offered = kOpenRate;
    achieved = static_cast<double>(w.open.size()) / round.open_span_s;
  } while (Clock::now() + std::chrono::duration<double>(last_round) < deadline);

  const double lag_p99 = quantile(lag_ms, 0.99);
  if (lag_p99 > kMaxGeneratorLagMs) {
    r.fail("generator fell behind its schedule (p99 lag " +
           std::to_string(lag_p99) + " ms)");
    ++r.failed;
  }
  r.digests["responses"] = hex64(first_digest);
  r.set("setup_s", median(setup_s), "s");
  r.set("solve_s", median(service_ms) / 1e3, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  r.set("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  r.set("slo_met_frac", static_cast<double>(within_slo) / static_cast<double>(sent),
        "ratio");
  r.set("throughput_rps", median(throughput), "1/s");
  r.info["rounds"] = std::to_string(throughput.size());
  r.info["open_loop_requests"] = std::to_string(sent);
  r.info["offered_rps"] = std::to_string(offered);
  r.info["achieved_rps"] = std::to_string(achieved);
  r.info["backlog_at_end_max"] = std::to_string(backlog);
  r.info["generator_lag_p99_ms"] = std::to_string(lag_p99);
  return r;
}

Result run_traced(const Workload& w) {
  Result r;
  const Round plain = run_round(w, nullptr);
  RequestCounters counters;
  const Round traced = run_round(w, &counters);
  count_failures(r, plain, w);
  count_failures(r, traced, w);
  if (plain.digest != traced.digest)
    r.fail("traced response log differs from the untraced one");
  if (traced.logged_full_solves != counters.full_solves)
    r.fail("response logs report " + std::to_string(traced.logged_full_solves) +
           " full solves, the registry " + std::to_string(counters.full_solves));
  r.digests["responses"] = hex64(traced.digest);

  // The response log's own counts must agree with the program's registry.
  std::uint64_t open_solves = 0, warm = 0;
  for (const Parsed& p : traced.open_responses) {
    open_solves += p.full_solves;
    warm += p.warm ? 1 : 0;
  }

  // Replay the whole open-loop session through the decorated drivers.
  std::vector<const Request*> requests;
  for (const Request& q : w.priming) requests.push_back(&q);
  for (const Request& q : w.open) requests.push_back(&q);
  const Replay rp = replay(requests, traced.open_responses, 7);
  for (const std::string& e : rp.errors) r.fail(e);
  std::uint64_t prefix_solves = 0;
  for (std::size_t i = 0; i < requests.size(); ++i)
    prefix_solves += traced.open_responses[i].full_solves;
  if (rp.full_solves != prefix_solves)
    r.fail("replayed full solves differ from the served ones");
  if (!r.errors.empty()) r.failed = std::max<std::uint64_t>(r.failed, 1);

  const std::size_t n = traced.open_responses.size();
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < traced.latency_ms.size(); ++i)
    wait_ms.push_back(traced.latency_ms[i] - traced.service_ms[i]);
  double sat_busy = 0.0;
  for (double x : traced.saturation_service_ms) sat_busy += x / 1e3;
  double value_busy = 0.0, partials_busy = 0.0;
  for (std::size_t i = 0; i < rp.totals.names.size(); ++i) {
    r.set("cost.term." + rp.totals.names[i] + ".ms", 1e3 * rp.totals.value_s[i],
          "ms");
    value_busy += rp.totals.value_s[i];
    partials_busy += rp.totals.partials_s[i];
  }
  const double solve_med = median(rp.solve_ms), grad_med = median(rp.gradient_ms);

  r.set("sensing.problem_build_s", median(rp.build_s), "s");
  r.set("markov.full_solves", static_cast<double>(counters.full_solves), "count");
  r.set("markov.exact_hits", static_cast<double>(counters.exact_hits), "count");
  r.set("markov.row_updates", static_cast<double>(counters.row_updates), "count");
  r.set("markov.solve_ms", solve_med, "ms");
  r.set("partition.sparse_solves", 0.0, "count");
  r.set("partition.sparse_solve_ms", 0.0, "ms");
  r.set("partition.bandwidth", 0.0, "count");
  r.set("cost.value_calls", static_cast<double>(rp.totals.value_calls), "count");
  r.set("cost.partials_ms", 1e3 * partials_busy, "ms");
  r.set("cost.gradient_ms", grad_med, "ms");
  r.set("descent.iterations", static_cast<double>(counters.iterations), "count");
  r.set("descent.reported_iterations",
        static_cast<double>(traced.logged_iterations), "count");
  r.set("descent.probes", static_cast<double>(counters.probes), "count");
  r.set("descent.probes_per_iter",
        counters.iterations == 0
            ? 0.0
            : static_cast<double>(counters.probes) /
                  static_cast<double>(counters.iterations),
        "count");
  r.set("descent.own_s",
        rp.busy_s - static_cast<double>(rp.full_solves) * solve_med / 1e3 -
            value_busy -
            static_cast<double>(rp.totals.partials_calls) * grad_med / 1e3,
        "s");
  r.set("runtime.start_s.p50", median(traced.saturation_service_ms) / 1e3, "s");
  r.set("runtime.start_s.max", quantile(traced.saturation_service_ms, 1.0) / 1e3,
        "s");
  r.set("runtime.parallel_efficiency",
        sat_busy / (traced.saturation_wall_s * static_cast<double>(kJobs)), "ratio");
  r.set("serve.service_ms.p50", quantile(traced.service_ms, 0.5), "ms");
  r.set("serve.service_ms.p99", quantile(traced.service_ms, 0.99), "ms");
  r.set("serve.wait_ms.p50", quantile(wait_ms, 0.5), "ms");
  r.set("serve.wait_ms.p99", quantile(wait_ms, 0.99), "ms");
  r.set("serve.peak_depth", static_cast<double>(traced.open_peak_depth),
        "count");
  r.set("serve.warm_frac", static_cast<double>(warm) / static_cast<double>(n),
        "ratio");
  r.set("serve.solves_per_request",
        static_cast<double>(open_solves) / static_cast<double>(n), "count");
  r.set("serve.generator_lag_ms", quantile(traced.lag_ms, 0.99), "ms");
  r.set("trace.overhead_ratio",
        quantile(traced.service_ms, 0.5) / quantile(plain.service_ms, 0.5),
        "ratio");
  return r;
}

}  // namespace

Result run_serve_mixed(const Options& opt) {
  const Workload w = make_workload(opt.seed);
  return opt.trace ? run_traced(w) : run_untraced(opt, w);
}

}  // namespace perfbench
