#include "src/markov/passage_times.hpp"

#include <stdexcept>

#include "src/linalg/lu.hpp"

namespace mocos::markov {

linalg::Matrix first_passage_times(const linalg::Matrix& z,
                                   const linalg::Vector& pi) {
  const std::size_t n = z.rows();
  if (pi.size() != n)
    throw std::invalid_argument("first_passage_times: size mismatch");
  linalg::Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double delta = (i == j) ? 1.0 : 0.0;
      r(i, j) = (delta - z(i, j) + z(j, j)) / pi[j];
    }
  }
  return r;
}

linalg::Matrix first_passage_times_by_solve(const linalg::Matrix& p) {
  const std::size_t n = p.rows();
  linalg::Matrix r(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    // Unknowns: m_i = E[steps to reach j from i], for all i (including i=j,
    // interpreted as the mean return time). System:
    //   m_i = 1 + sum_{k != j} p_ik m_k.
    linalg::Matrix a(n, n);
    linalg::Vector rhs(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        double v = (i == k) ? 1.0 : 0.0;
        if (k != j) v -= p(i, k);
        a(i, k) = v;
      }
    }
    // Note: column j of the unknown couples only through the i=j row, and the
    // matrix above already encodes that (the p_ij terms vanish for k == j).
    const linalg::Vector m = linalg::solve(a, rhs);
    for (std::size_t i = 0; i < n; ++i) r(i, j) = m[i];
  }
  return r;
}

}  // namespace mocos::markov
