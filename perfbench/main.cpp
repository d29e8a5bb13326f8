// mocos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one benchmark workload in process and prints one JSON line: the
// metrics (end-to-end with --trace 0, per-layer with --trace 1), the output
// digests, the run metadata and every failed output check. run.py builds
// this binary, compares the digests and prints the benchmark's result line.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr std::size_t kMaxErrors = 20;  // printed; the rest are counted

void print(const perfbench::Result& r) {
  std::ostringstream o;
  o << "{\"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, vu] : r.metrics) {
    o << sep << json_string(name) << ": {\"value\": " << json_number(vu.first)
      << ", \"unit\": " << json_string(vu.second) << "}";
    sep = ", ";
  }
  o << "}, \"digests\": {";
  sep = "";
  for (const auto& [name, d] : r.digests) {
    o << sep << json_string(name) << ": " << json_string(d);
    sep = ", ";
  }
  o << "}, \"info\": {";
  sep = "";
  for (const auto& [name, v] : r.info) {
    o << sep << json_string(name) << ": " << json_string(v);
    sep = ", ";
  }
  o << "}, \"errors\": [";
  sep = "";
  for (std::size_t i = 0; i < r.errors.size() && i < kMaxErrors; ++i) {
    o << sep << json_string(r.errors[i]);
    sep = ", ";
  }
  if (r.errors.size() > kMaxErrors)
    o << ", " << json_string("... and " +
                             std::to_string(r.errors.size() - kMaxErrors) +
                             " more");
  o << "]}";
  std::cout << o.str() << std::endl;
}

/// Host speed probe: the median time of a fixed kernel that shares no code
/// with mocos (a 192x192 matrix product). The same build on a contended
/// host has run the workloads up to twice as slow, so every run records how
/// fast the host was.
double host_reference_ms() {
  constexpr std::size_t n = 192;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = 1.0 + static_cast<double>(i % 7);
    b[i] = 1.0 / static_cast<double>(1 + i % 5);
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = perfbench::Clock::now();
    std::fill(c.begin(), c.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j)
          c[i * n + j] += a[i * n + k] * b[k * n + j];
    ms.push_back(1e3 * perfbench::seconds_between(t0, perfbench::Clock::now()));
  }
  volatile double sink = c[n * n - 1];
  (void)sink;
  return perfbench::median(ms);
}

int usage(const char* why) {
  std::cerr << "mocos_perfbench: " << why
            << "\nusage: mocos_perfbench --workload <city_adaptive|"
               "paper_multistart|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized || kSanitized) {
    std::cerr << "mocos_perfbench: refusing to measure an unoptimized or "
                 "sanitizer build\n";
    return 2;
  }
  perfbench::Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value != "0";
      else return usage(("unknown flag " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  const double host_ms = host_reference_ms();
  perfbench::Result r;
  try {
    if (opt.workload == "city_adaptive") r = perfbench::run_city_adaptive(opt);
    else if (opt.workload == "paper_multistart")
      r = perfbench::run_paper_multistart(opt);
    else if (opt.workload == "serve_mixed") r = perfbench::run_serve_mixed(opt);
    else return usage("unknown workload");
  } catch (const std::exception& e) {
    std::cerr << "mocos_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  r.info["workload"] = opt.workload;
  r.info["seed"] = std::to_string(opt.seed);
  r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.info["compiler"] = __VERSION__;
  r.info["build_type"] = PERFBENCH_BUILD_TYPE;
  r.info["host_reference_ms"] = std::to_string(host_ms);
  r.info["cxx_flags"] = PERFBENCH_CXX_FLAGS;
#ifdef MOCOS_FAULT_INJECTION
  r.info["fault_injection"] = "on";
#else
  r.info["fault_injection"] = "off";
#endif
  print(r);
  return 0;
}
