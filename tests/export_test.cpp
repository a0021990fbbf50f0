#include "sim/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/test_trace.hpp"

namespace repro::sim {
namespace {

using repro::testing::shared_tiny_trace;

/// Exported CSV text as rows of fields, header first. The exporters never
/// need quoting (no value holds ',', '"' or a newline), which this checks.
std::vector<std::vector<std::string>> split_csv(const std::string& text) {
  EXPECT_EQ(text.find('"'), std::string::npos);
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string>& row = rows.emplace_back();
    std::istringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) row.push_back(field);
  }
  return rows;
}

TEST(Export, SamplesCsvRoundTrips) {
  const Trace& trace = shared_tiny_trace();
  std::ostringstream out;
  const std::size_t rows = export_samples_csv(trace, out);
  EXPECT_EQ(rows, trace.samples.size());

  const auto csv = split_csv(out.str());
  ASSERT_EQ(csv.size(), trace.samples.size() + 1);
  ASSERT_GE(csv[0].size(), 14u);
  EXPECT_EQ(csv[0][0], "run");
  // Spot-check a row against the sample.
  const auto& s = trace.samples[7];
  const auto& row = csv[7 + 1];
  EXPECT_EQ(row[0], std::to_string(s.run));
  EXPECT_EQ(row[4], std::to_string(s.node));
  EXPECT_EQ(row[12], std::to_string(s.sbe_count));
  EXPECT_EQ(row[2], trace.catalog.spec(s.app).name);
}

TEST(Export, SbeLogCsvMatchesEvents) {
  const Trace& trace = shared_tiny_trace();
  std::ostringstream out;
  const std::size_t rows = export_sbe_log_csv(trace, out);
  EXPECT_EQ(rows, trace.sbe_log.events().size());
  const auto csv = split_csv(out.str());
  ASSERT_EQ(csv.size(), rows + 1);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(csv[i + 1][5],
              std::to_string(trace.sbe_log.events()[i].count));
  }
}

TEST(Export, FeaturesCsvHasLabelColumn) {
  const Trace& trace = shared_tiny_trace();
  const features::FeatureExtractor fx(trace, {});
  const std::vector<std::size_t> idx = {0, 3, 9};
  std::ostringstream out;
  const std::size_t rows = export_features_csv(trace, fx, idx, out);
  EXPECT_EQ(rows, 3u);
  const auto csv = split_csv(out.str());
  ASSERT_EQ(csv.size(), 4u);
  ASSERT_EQ(csv[0].size(), fx.dim() + 1);
  EXPECT_EQ(csv[0].back(), "label");
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(csv[r + 1].size(), fx.dim() + 1);
    const double label = std::stod(csv[r + 1].back());
    EXPECT_EQ(label, trace.samples[idx[r]].sbe_affected() ? 1.0 : 0.0);
  }
}

TEST(Export, ProbeCsvOneRowPerMinute) {
  SimConfig cfg = SimConfig::testing(2, 13);
  cfg.probe_nodes = {1};
  const Trace trace = simulate(cfg);
  std::ostringstream out;
  const std::size_t rows = export_probe_csv(trace.probes[0], out);
  EXPECT_EQ(rows, static_cast<std::size_t>(trace.duration));
}

}  // namespace
}  // namespace repro::sim
