#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/table.hpp"

namespace repro {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"Scheme", "Precision"});
  t.add_row({std::string("Random"), "0.02"});
  t.add_row("Basic A", {0.4}, 2);
  const std::string out = t.render();
  EXPECT_NE(out.find("Scheme"), std::string::npos);
  EXPECT_NE(out.find("Basic A"), std::string::npos);
  EXPECT_NE(out.find("0.40"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only")}), CheckError);
}

TEST(Grid, RendersRowsTopDown) {
  const std::vector<std::vector<double>> grid = {{1.0, 2.0}, {3.0, 4.0}};
  const std::string out = render_grid(grid, 0);
  // y=1 row ("3 4") must appear before y=0 row ("1 2").
  EXPECT_LT(out.find('3'), out.find('1'));
}

TEST(Grid, ShadesSpanRange) {
  const std::vector<std::vector<double>> grid = {{0.0, 0.5, 1.0}};
  const std::string out = render_grid_shades(grid);
  EXPECT_NE(out.find(' '), std::string::npos);
  EXPECT_NE(out.find('@'), std::string::npos);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

}  // namespace
}  // namespace repro
