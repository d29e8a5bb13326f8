#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string schedule_digest(const mocos::markov::TransitionMatrix& p,
                            double cost) {
  const mocos::linalg::Matrix& m = p.matrix();
  std::uint64_t h = fnv1a(m.data(), m.rows() * m.cols() * sizeof(double));
  h = fnv1a(&cost, sizeof cost, h);
  return hex64(h);
}

std::string check_schedule(const mocos::markov::TransitionMatrix& p) {
  const mocos::linalg::Matrix& m = p.matrix();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double x = m(i, j);
      if (!std::isfinite(x) || x < 0.0)
        return "P(" + std::to_string(i) + "," + std::to_string(j) +
               ") is negative or not finite";
      sum += x;
    }
    if (std::abs(sum - 1.0) > 1e-9)
      return "row " + std::to_string(i) + " of P sums to " +
             std::to_string(sum);
  }
  return "";
}

}  // namespace perfbench
