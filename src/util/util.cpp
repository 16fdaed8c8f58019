#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace pf::util {

std::vector<double> load_steps(double lo, double hi, int count) {
  std::vector<double> loads;
  loads.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    loads.push_back(count == 1 ? lo
                               : lo + (hi - lo) * static_cast<double>(i) /
                                          static_cast<double>(count - 1));
  }
  return loads;
}

std::vector<double> parse_range(const std::string& spec) {
  const CliError malformed("range must be lo:hi:count, got '" + spec + "'");
  const std::size_t first = spec.find(':');
  const std::size_t second = first == std::string::npos
                                 ? std::string::npos
                                 : spec.find(':', first + 1);
  if (second == std::string::npos) throw malformed;
  const std::string fields[] = {spec.substr(0, first),
                                spec.substr(first + 1, second - first - 1),
                                spec.substr(second + 1)};
  std::size_t used[] = {0, 0, 0};
  double lo = 0.0;
  double hi = 0.0;
  long long count = 0;
  try {
    lo = std::stod(fields[0], &used[0]);
    hi = std::stod(fields[1], &used[1]);
    count = std::stoll(fields[2], &used[2]);
  } catch (const std::logic_error&) {
    throw malformed;
  }
  // stod/stoll stop at the first character they cannot use: a field
  // with anything left over ("2x", "0.1abc") is refused, not truncated.
  for (int i = 0; i < 3; ++i) {
    if (used[i] != fields[i].size()) throw malformed;
  }
  if (count < 1 || count > std::numeric_limits<int>::max()) {
    throw CliError("range count must be in [1, " +
                   std::to_string(std::numeric_limits<int>::max()) +
                   "], got '" + spec + "'");
  }
  return load_steps(lo, hi, static_cast<int>(count));
}

void print_banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

std::string Table::to_cell(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void Table::print() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%s%-*s", c == 0 ? "| " : " | ",
                  static_cast<int>(c < widths.size() ? widths[c] : 0),
                  cells[c].c_str());
    }
    std::printf(" |\n");
  };
  print_row(headers_);
  std::string rule = "|";
  for (const std::size_t w : widths) rule += std::string(w + 2, '-') + "|";
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

bool Table::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto write_row = [f](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::fprintf(f, "%s%s", c == 0 ? "" : ",", cells[c].c_str());
    }
    std::fprintf(f, "\n");
  };
  write_row(headers_);
  for (const auto& row : rows_) write_row(row);
  std::fclose(f);
  return true;
}

}  // namespace pf::util
