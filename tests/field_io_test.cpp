// Pressure-level interpolation and text field I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/serial_core.hpp"
#include "state/vertical_interp.hpp"
#include "util/field_io.hpp"
#include "util/math.hpp"
#include "test_temp_dir.hpp"

namespace ca {
namespace {

core::DycoreConfig cfg() {
  core::DycoreConfig c;
  c.nx = 16;
  c.ny = 8;
  c.nz = 10;
  return c;
}

TEST(VerticalInterp, LevelPressuresAreMonotone) {
  core::SerialCore core(cfg());
  auto xi = core.make_state();
  xi.fill(0.0);
  const auto& ctx = core.op_context();
  for (int k = 0; k + 1 < 10; ++k)
    EXPECT_LT(state::level_pressure(ctx, xi.psa(), 3, 3, k),
              state::level_pressure(ctx, xi.psa(), 3, 3, k + 1));
  EXPECT_GT(state::level_pressure(ctx, xi.psa(), 3, 3, 0),
            util::kPressureTop);
  EXPECT_LT(state::level_pressure(ctx, xi.psa(), 3, 3, 9), 1.0e5);
}

TEST(VerticalInterp, RecoversLinearInLogPProfile) {
  core::SerialCore core(cfg());
  auto xi = core.make_state();
  xi.fill(0.0);
  const auto& ctx = core.op_context();
  // Field exactly linear in log(p): interpolation must be exact.
  util::Array3D<double> f(16, 8, 10, xi.u().halo());
  for (int k = 0; k < 10; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 16; ++i)
        f(i, j, k) =
            3.0 * std::log(state::level_pressure(ctx, xi.psa(), i, j, k)) -
            5.0;
  const double p500 = 5.0e4;
  auto slab = state::interpolate_to_pressure(ctx, xi.psa(), f, p500);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 16; ++i)
      EXPECT_NEAR(slab(i, j), 3.0 * std::log(p500) - 5.0, 1e-10);
}

TEST(VerticalInterp, ClampsOutOfRangeLevels) {
  core::SerialCore core(cfg());
  auto xi = core.make_state();
  xi.fill(0.0);
  const auto& ctx = core.op_context();
  util::Array3D<double> f(16, 8, 10, xi.u().halo());
  for (int k = 0; k < 10; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 16; ++i) f(i, j, k) = 100.0 + k;
  auto above = state::interpolate_to_pressure(ctx, xi.psa(), f, 1.0);
  EXPECT_DOUBLE_EQ(above(2, 2), 100.0);  // top level
  auto below = state::interpolate_to_pressure(ctx, xi.psa(), f, 2.0e5);
  EXPECT_DOUBLE_EQ(below(2, 2), 109.0);  // bottom level
}

TEST(VerticalInterp, RespondsToSurfacePressureAnomaly) {
  // Raising p_s shifts every level's pressure: the same target level then
  // samples higher (smaller k) model levels.
  core::SerialCore core(cfg());
  auto xi = core.make_state();
  const auto& ctx = core.op_context();
  util::Array3D<double> f(16, 8, 10, xi.u().halo());
  for (int k = 0; k < 10; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 16; ++i) f(i, j, k) = static_cast<double>(k);
  xi.fill(0.0);
  auto flat = state::interpolate_to_pressure(ctx, xi.psa(), f, 5.0e4);
  xi.psa()(4, 4) = 5000.0;  // +50 hPa at one column
  auto high = state::interpolate_to_pressure(ctx, xi.psa(), f, 5.0e4);
  EXPECT_LT(high(4, 4), flat(4, 4))
      << "higher surface pressure maps 500 hPa to a higher model level";
  EXPECT_DOUBLE_EQ(high(0, 0), flat(0, 0)) << "other columns unchanged";
}

TEST(FieldIo, RoundTrip) {
  util::Array2D<double> f(6, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 6; ++i) f(i, j) = 0.5 * i - 1.25 * j;
  const auto path = test_support::temp_path("field_io_test.txt");
  util::write_text_field(path, "test field", f);
  auto g = util::read_text_field(path);
  ASSERT_EQ(g.nx(), 6);
  ASSERT_EQ(g.ny(), 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(g(i, j), f(i, j));
  std::remove(path.c_str());
}

TEST(FieldIo, WriteLevelOf3D) {
  util::Array3D<double> f(5, 3, 2, util::Halo3{1, 1, 0});
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 3; ++j)
      for (int i = 0; i < 5; ++i) f(i, j, k) = i + 10 * j + 100 * k;
  const auto path = test_support::temp_path("field_io_level.txt");
  util::write_text_level(path, "level 1", f, 1);
  auto g = util::read_text_field(path);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(g(i, j), 100.0 + i + 10 * j);
  std::remove(path.c_str());
}

TEST(FieldIo, MalformedFilesThrow) {
  const auto dir = test_support::temp_root();
  const auto bad1 = (dir / "ca_agcm_bad1.txt").string();
  {
    std::ofstream out(bad1);
    out << "no header here\n1 2 3\n";
  }
  EXPECT_THROW(util::read_text_field(bad1), std::runtime_error);
  std::remove(bad1.c_str());

  const auto bad2 = (dir / "ca_agcm_bad2.txt").string();
  {
    std::ofstream out(bad2);
    out << "# label\n# nx 4 ny 3\n1 2 3 4\n5 6\n";  // truncated row
  }
  EXPECT_THROW(util::read_text_field(bad2), std::runtime_error);
  std::remove(bad2.c_str());

  EXPECT_THROW(util::read_text_field("/nonexistent/file.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace ca
