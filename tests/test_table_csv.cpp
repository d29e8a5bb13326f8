#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/util/csv.hpp"
#include "src/util/table.hpp"
#include "tests/helpers.hpp"

namespace mocos::util {
namespace {

TEST(Table, PrintsHeaderAndRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, DoubleRowFormatting) {
  Table t({"label", "x", "y"});
  t.add_row("row", {1.5, 2.25}, 2);
  EXPECT_NE(t.to_string().find("1.50"), std::string::npos);
  EXPECT_NE(t.to_string().find("2.25"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CountsRows) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 4), "1.0000");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const test::TempPath file("mocos_csv_test.csv");
  const std::string& path = file.path();
  {
    CsvWriter w(path, {"x", "y"});
    w.write_row(std::vector<double>{1.0, 2.5});
    w.write_row(std::vector<std::string>{"a", "b"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
}

TEST(CsvWriter, RejectsColumnMismatch) {
  const test::TempPath file("mocos_csv_test2.csv");
  CsvWriter w(file.path(), {"x", "y"});
  EXPECT_THROW(w.write_row(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(CsvWriter, RejectsUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zz/f.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace mocos::util
