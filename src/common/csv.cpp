#include "common/csv.hpp"

#include <ostream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace repro {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), columns_(header.size()) {
  REPRO_CHECK(columns_ > 0);
  for (std::size_t i = 0; i < header.size(); ++i) {
    out_ << (i == 0 ? "" : ",") << csv_escape(header[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  REPRO_CHECK_MSG(cells.size() == columns_, "csv row width mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out_ << (i == 0 ? "" : ",") << csv_escape(cells[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) cells.push_back(fmt(v, precision));
  write_row(cells);
}

}  // namespace repro
