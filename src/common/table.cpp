#include "common/table.hpp"

#include <algorithm>
#include <cstdio>

namespace sg {

std::size_t display_width(const std::string& s) {
  std::size_t w = 0;
  for (const char c : s) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++w;
  }
  return w;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i)
    widths[i] = display_width(headers_[i]);
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], display_width(row[i]));
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      line += row[i];
      line.append(widths[i] - display_width(row[i]) + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::print() const { std::fputs(render().c_str(), stdout); }

std::string TablePrinter::csv() const {
  auto csv_row = [](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) line += ',';
      line += csv_escape(row[i]);
    }
    line += '\n';
    return line;
  };
  std::string out = csv_row(headers_);
  for (const auto& row : rows_) out += csv_row(row);
  return out;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string csv_escape(std::string_view v) {
  if (v.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(v);
  }
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_ratio(double v, int precision) {
  return fmt_double(v, precision) + "x";
}

void print_banner(const std::string& title) {
  std::string bar(title.size() + 4, '=');
  std::printf("\n%s\n= %s =\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

}  // namespace sg
