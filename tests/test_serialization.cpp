#include "src/core/serialization.hpp"

#include <gtest/gtest.h>

#include "tests/helpers.hpp"

namespace mocos::core {
namespace {

TEST(Serialization, RoundTripsToLastUlp) {
  // The text carries max_digits10 precision; the only loss is the
  // deserializer's defensive row renormalization (one division by a sum
  // within 1 ulp of 1.0).
  util::Rng rng(3);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(3 + rng.index(5), rng);
    const auto q = deserialize_schedule(serialize_schedule(p));
    ASSERT_EQ(q.size(), p.size());
    EXPECT_TRUE(linalg::approx_equal(q.matrix(), p.matrix(), 1e-15));
  }
}

TEST(Serialization, FormatIsHumanReadable) {
  const std::string text =
      serialize_schedule(markov::TransitionMatrix::uniform(2));
  EXPECT_NE(text.find("mocos-schedule v1"), std::string::npos);
  EXPECT_NE(text.find("pois 2"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
}

TEST(Serialization, RejectsCorruptInput) {
  EXPECT_THROW(deserialize_schedule(""), std::invalid_argument);
  EXPECT_THROW(deserialize_schedule("wrong header\npois 2\n"),
               std::invalid_argument);
  EXPECT_THROW(deserialize_schedule("mocos-schedule v1\npois 1\n1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      deserialize_schedule("mocos-schedule v1\npois 2\n0.5 0.5\n0.5\n"),
      std::invalid_argument);
  EXPECT_THROW(deserialize_schedule(
                   "mocos-schedule v1\npois 2\n0.5 0.5\n0.5 0.5\n0.1\n"),
               std::invalid_argument);
  // Valid shape but not row-stochastic: the TransitionMatrix ctor rejects.
  EXPECT_THROW(
      deserialize_schedule("mocos-schedule v1\npois 2\n0.9 0.5\n0.5 0.5\n"),
      std::invalid_argument);
}

TEST(Serialization, FileRoundTrip) {
  const test::TempPath file("mocos_sched_test.txt");
  util::Rng rng(4);
  const auto p = test::random_positive_chain(4, rng);
  save_schedule(file.path(), p);
  const auto q = load_schedule(file.path());
  EXPECT_TRUE(linalg::approx_equal(p.matrix(), q.matrix(), 0.0));
  EXPECT_THROW(load_schedule("/nonexistent/sched.txt"), std::runtime_error);
  EXPECT_THROW(save_schedule("/nonexistent_dir_zz/s.txt", p),
               std::runtime_error);
}

}  // namespace
}  // namespace mocos::core
