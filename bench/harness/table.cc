#include "bench/harness/table.h"

#include <algorithm>
#include <cstdio>

namespace eunomia::harness {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::printf("|");
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  auto print_sep = [&widths] {
    std::printf("+");
    for (const std::size_t w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) {
        std::printf("-");
      }
      std::printf("+");
    }
    std::printf("\n");
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) {
    print_row(row);
  }
  print_sep();
}

void Table::PrintCsv() const {
  auto print_row = [](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%s%s", c == 0 ? "" : ",", cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, v);
  return buf;
}

void PrintBanner(const std::string& title, const std::string& subtitle) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) {
    std::printf("%s\n", subtitle.c_str());
  }
  std::printf("================================================================\n");
}

}  // namespace eunomia::harness
