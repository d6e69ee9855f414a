// The figure suite's --csv path: each table a figure prints is written to
// bench_out/<figure>_<k>.csv, cell for cell, as RFC 4180 CSV.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "figure.hpp"

namespace sg::bench {
namespace {

TEST(CsvEscapeTest, PlainPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscapeTest, CommasQuoted) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, QuotesDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscapeTest, NewlinesQuoted) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

/// Splits RFC 4180 text into rows of fields: the inverse of
/// TablePrinter::csv().
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted && c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
      field += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (quoted || (c != ',' && c != '\n')) {
      field += c;
    } else {
      row.push_back(std::move(field));
      field.clear();
      if (c == '\n') {
        rows.push_back(std::move(row));
        row.clear();
      }
    }
  }
  return rows;
}

TEST(FigureCsvTest, EachPrintedTableIsWrittenCellForCell) {
  // Table I prints two tables; the notes column of the second one holds
  // commas, so its file needs quoting.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "figure_csv_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const char* argv[] = {"bench_table1_controllers", "--quick", "--csv",
                        "--seed", "1"};
  ::testing::internal::CaptureStdout();
  const int rc =
      run_figures(5, const_cast<char**>(argv), "table1_controllers");
  const std::string printed = ::testing::internal::GetCapturedStdout();
  std::filesystem::current_path(cwd);
  ASSERT_EQ(rc, 0);

  // Every table render() ends its header with a line of dashes.
  int printed_tables = 0;
  std::istringstream lines(printed);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++printed_tables;
    }
  }

  std::size_t at = 0;
  int files = 0;
  for (int k = 1;; ++k) {
    std::ifstream in(dir / "bench_out" /
                         ("table1_controllers_" + std::to_string(k) + ".csv"),
                     std::ios::binary);
    if (!in) break;
    ++files;
    std::ostringstream text;
    text << in.rdbuf();
    const auto rows = parse_csv(text.str());
    ASSERT_GE(rows.size(), 2u) << "file " << k;
    TablePrinter table(rows.front());
    for (std::size_t r = 1; r < rows.size(); ++r) table.add_row(rows[r]);
    EXPECT_EQ(table.csv(), text.str()) << "file " << k;
    // The k-th file holds the k-th printed table: its rows, rendered,
    // appear in stdout after the previous table.
    const std::size_t found = printed.find(table.render(), at);
    ASSERT_NE(found, std::string::npos) << "file " << k << ":\n" << text.str();
    at = found + 1;
    if (k == 2) {
      EXPECT_NE(text.str().find("\"averaged metrics, 500ms FSM\""),
                std::string::npos);
    }
  }
  EXPECT_EQ(files, 2);
  EXPECT_EQ(files, printed_tables);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sg::bench
