#include "src/util/config.hpp"

#include <gtest/gtest.h>

#include "tests/helpers.hpp"

namespace mocos::util {
namespace {

TEST(Split, BasicAndEdgeCases) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(" a , b ", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split("1,,2", ','), (std::vector<std::string>{"1", "", "2"}));
  EXPECT_TRUE(split("", ',').empty());
  EXPECT_TRUE(split("   ", ',').empty());
  EXPECT_EQ(split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(ParseDouble, AcceptsNumbersRejectsJunk) {
  EXPECT_DOUBLE_EQ(parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e-3 "), -2e-3);
  EXPECT_THROW(parse_double(""), std::invalid_argument);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
  EXPECT_THROW(parse_double("1.5x"), std::invalid_argument);
}

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Config, ParsesKeysAndValues) {
  const auto cfg = Config::parse_string(
      "a = 1\n"
      "# full comment line\n"
      "\n"
      "name = hello world   # trailing comment\n");
  EXPECT_EQ(cfg.size(), 2u);
  EXPECT_TRUE(cfg.has("a"));
  EXPECT_EQ(cfg.get_string("name", ""), "hello world");
  EXPECT_DOUBLE_EQ(cfg.get_double("a", 0.0), 1.0);
}

TEST(Config, LastValueWinsAndGetAllPreservesOrder) {
  const auto cfg = Config::parse_string(
      "x = 1\nobstacle = A\nx = 2\nobstacle = B\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 0.0), 2.0);
  EXPECT_EQ(cfg.get_all("obstacle"), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(cfg.keys(), (std::vector<std::string>{"x", "obstacle"}));
}

TEST(Config, FallbacksWhenAbsent) {
  const auto cfg = Config::parse_string("a = 1\n");
  EXPECT_EQ(cfg.get_string("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 3.5), 3.5);
  EXPECT_EQ(cfg.get_size("missing", 7u), 7u);
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_THROW(cfg.require_string("missing"), std::out_of_range);
}

TEST(Config, BooleanForms) {
  const auto cfg = Config::parse_string(
      "t1 = true\nt2 = YES\nt3 = 1\nf1 = false\nf2 = No\nf3 = 0\nbad = maybe\n");
  EXPECT_TRUE(cfg.get_bool("t1", false));
  EXPECT_TRUE(cfg.get_bool("t2", false));
  EXPECT_TRUE(cfg.get_bool("t3", false));
  EXPECT_FALSE(cfg.get_bool("f1", true));
  EXPECT_FALSE(cfg.get_bool("f2", true));
  EXPECT_FALSE(cfg.get_bool("f3", true));
  EXPECT_THROW(cfg.get_bool("bad", true), std::invalid_argument);
}

TEST(Config, SizeRejectsNegativeAndFractional) {
  const auto cfg = Config::parse_string("n = -3\nf = 2.5\nok = 42\n");
  EXPECT_THROW(cfg.get_size("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_size("f", 0), std::invalid_argument);
  EXPECT_EQ(cfg.get_size("ok", 0), 42u);
}

TEST(Config, SizeRejectsNonFiniteAndHugeValues) {
  // Fuzz regression (tools/fuzz/fuzz_config): these values parse as
  // doubles, and get_size used to cast them straight to size_t — undefined
  // behavior for anything outside the representable range, NaN included.
  // They must be rejected through the documented error taxonomy instead.
  const auto cfg = Config::parse_string(
      "huge = 1e300\n"
      "not_a_number = nan\n"
      "pos_inf = inf\n"
      "neg_inf = -inf\n"
      "above_exact = 9007199254740994\n"  // 2^53 + 2, past the exact bound
      "max_exact = 9007199254740992\n");  // 2^53, the last exact integer
  EXPECT_THROW(cfg.get_size("huge", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_size("not_a_number", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_size("pos_inf", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_size("neg_inf", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_size("above_exact", 0), std::invalid_argument);
  EXPECT_EQ(cfg.get_size("max_exact", 0), 9007199254740992u);
}

TEST(Config, MalformedLinesThrowWithLineNumber) {
  try {
    Config::parse_string("good = 1\nbad line without equals\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2:"), std::string::npos);
  }
  EXPECT_THROW(Config::parse_string("= value\n"), std::invalid_argument);
}

TEST(Config, MalformedFileLineNamesPathAndLine) {
  const test::TempPath file("mocos_config_bad.conf");
  const std::string& path =
      file.write("alpha = 1\n\n# comment\nthis line is broken\n");
  try {
    Config::parse_file(path);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":4:"), std::string::npos) << what;
    EXPECT_NE(what.find("missing '='"), std::string::npos) << what;
  }
}

TEST(Config, UnreadableFileNamesPathWithStructuredCode) {
  try {
    Config::parse_file("/nonexistent/file.conf");
    FAIL() << "expected throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidConfig);
    EXPECT_NE(std::string(e.what()).find("/nonexistent/file.conf"),
              std::string::npos);
  }
}

TEST(Config, ParseFileRoundTrip) {
  const test::TempPath file("mocos_config_test.conf");
  const auto cfg = Config::parse_file(file.write("alpha = 2.5\nbeta = 0.1\n"));
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", 0.0), 2.5);
  EXPECT_THROW(Config::parse_file("/nonexistent/file.conf"),
               std::runtime_error);
}

}  // namespace
}  // namespace mocos::util
