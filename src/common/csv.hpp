// Minimal CSV writing, used to export traces, feature matrices and bench
// results for offline plotting. Quotes fields containing separators.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace repro {

class CsvWriter {
 public:
  /// Writes a header immediately; subsequent rows must match its width.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  void write_row(const std::vector<std::string>& cells);
  void write_row(const std::vector<double>& values, int precision = 6);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ostream& out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

/// Escapes a single CSV field (quotes if it contains ',', '"' or newline).
std::string csv_escape(const std::string& field);

}  // namespace repro
