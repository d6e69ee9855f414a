#include "common/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace sg {
namespace {

TEST(TablePrinterTest, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  // Header, underline, two rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Columns align: "value" starts at the same offset in header as "22" row.
  const std::size_t header_col = out.find("value");
  const std::size_t row_line = out.find("longer-name");
  const std::size_t row_col = out.find("22", row_line) - row_line;
  EXPECT_EQ(header_col, row_col);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.rows().at(0).size(), 3u);
}

TEST(TablePrinterTest, NoTrailingSpaces) {
  TablePrinter t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string out = t.render();
  std::size_t pos = 0;
  while ((pos = out.find('\n', pos)) != std::string::npos) {
    if (pos > 0) {
      EXPECT_NE(out[pos - 1], ' ');
    }
    ++pos;
  }
}

TEST(TablePrinterTest, EmptyCellsRenderWithoutShiftingColumns) {
  TablePrinter t({"name", "mid", "value"});
  t.add_row({"a", "", "1"});
  t.add_row({"bb", "x", "22"});
  const std::string out = t.render();
  // The row with the empty middle cell keeps the third column aligned with
  // the header's.
  const std::size_t header_col = out.find("value");
  const std::size_t row_line = out.find("bb");
  EXPECT_EQ(out.find("22", row_line) - row_line, header_col);
  const std::size_t empty_line = out.find("a ");
  EXPECT_EQ(out.find("1", empty_line) - empty_line, header_col);
  // An all-empty row renders as a blank (possibly whitespace-free) line, not
  // a crash and not a missing line.
  TablePrinter t2({"a", "b"});
  t2.add_row({"", ""});
  const std::string out2 = t2.render();
  EXPECT_EQ(std::count(out2.begin(), out2.end(), '\n'), 3);
}

TEST(TablePrinterTest, WideUtf8HeadersAlignByDisplayWidth) {
  // "µs" and "Δt" are 3 bytes but 2 display columns wide; alignment must
  // use display_width, not byte length.
  TablePrinter t({"metric", "µs", "Δt"});
  t.add_row({"alloc", "12", "3"});
  t.add_row({"free", "345", "67"});
  const std::string out = t.render();
  const std::size_t header_end = out.find('\n');
  const std::string header = out.substr(0, header_end);
  const std::size_t col2 = header.find("µs");
  const std::size_t row_line = out.find("alloc");
  // Column offsets in display columns: bytes up to "µs" are ASCII, so the
  // byte offset equals the display offset there.
  EXPECT_EQ(out.find("12", row_line) - row_line, col2);
  EXPECT_EQ(display_width("µs"), 2u);
  EXPECT_EQ(display_width("Δt"), 2u);
  EXPECT_EQ(display_width("ascii"), 5u);
  EXPECT_EQ(display_width(""), 0u);
}

TEST(ReportingTest, FmtRatio) {
  EXPECT_EQ(fmt_ratio(0.5), "0.50x");
  EXPECT_EQ(fmt_ratio(1.0, 1), "1.0x");
  EXPECT_EQ(fmt_ratio(12.345, 2), "12.35x");
}

TEST(ReportingTest, FmtRatioEdgeValues) {
  EXPECT_EQ(fmt_ratio(0.0), "0.00x");
  EXPECT_EQ(fmt_ratio(-1.5), "-1.50x");
  EXPECT_EQ(fmt_ratio(std::numeric_limits<double>::infinity()), "infx");
  EXPECT_EQ(fmt_ratio(-std::numeric_limits<double>::infinity()), "-infx");
  EXPECT_EQ(fmt_ratio(1e9, 0), "1000000000x");
}

TEST(FmtDoubleTest, Precision) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(1.0, 0), "1");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(CsvTest, WritesRows) {
  // The header and every row, one line each, the cells as render() shows
  // them; a short row is padded like the rendered one.
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"x, y"});
  EXPECT_EQ(t.csv(), "a,b,c\n1,2,3\n\"x, y\",,\n");
}

}  // namespace
}  // namespace sg
