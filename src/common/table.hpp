// Fixed-width table printing for bench/tool output.
//
// Every bench prints the paper's rows/series as aligned text tables, and
// with --csv writes the same tables as CSV; this keeps both formats in one
// place. Lives in sg_common (historically core/reporting) so lower layers —
// notably the sg::trace exporters — can render tables without depending on
// sg_core.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sg {

/// Display width of a UTF-8 string in code points (continuation bytes are
/// skipped). Column alignment uses this, not byte length, so headers like
/// "p98 (µs)" line up.
std::size_t display_width(const std::string& s);

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders with column auto-sizing and a header underline.
  std::string render() const;

  /// render() to stdout.
  void print() const;

  /// The header and every row as RFC 4180 CSV, one line each, cell for
  /// cell as render() shows them.
  std::string csv() const;

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// A double with fixed precision.
std::string fmt_double(double v, int precision = 3);

/// One CSV field (RFC 4180): quoted when it holds a comma, a quote or a
/// line break, with inner quotes doubled.
std::string csv_escape(std::string_view v);

/// "0.83x"-style normalized value rendering.
std::string fmt_ratio(double v, int precision = 2);

/// Section banner for bench output.
void print_banner(const std::string& title);

}  // namespace sg
