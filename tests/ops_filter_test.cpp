// Fourier polar filter: damping behavior, conservation of the zonal mean,
// linearity, idempotence-like contraction, and the distributed (X-Y)
// path's agreement with the local one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "comm/runtime.hpp"
#include "comm/topology.hpp"
#include "core/dycore_config.hpp"
#include "fft/dft.hpp"
#include "mesh/decomp.hpp"
#include "ops/filter.hpp"
#include "util/math.hpp"

namespace ca::ops {
namespace {

struct Fixture {
  Fixture(int nx = 48, int ny = 24, int nz = 4)
      : mesh(nx, ny, nz),
        levels(mesh::SigmaLevels::uniform(nz)),
        strat(levels),
        decomp(mesh, {1, 1, 1}, {0, 0, 0}) {
    ctx = OpContext{&mesh, &levels, &strat, &decomp, ModelParams{}};
  }
  mesh::LatLonMesh mesh;
  mesh::SigmaLevels levels;
  state::Stratification strat;
  mesh::DomainDecomp decomp;
  OpContext ctx;
};

TEST(Filter, PolarRowsActiveEquatorialRowsNot) {
  Fixture f;
  FourierFilter filt(f.ctx);
  EXPECT_TRUE(filt.row_active(0));
  EXPECT_TRUE(filt.row_active(23));
  EXPECT_FALSE(filt.row_active(11));
  EXPECT_FALSE(filt.row_active(12));
  EXPECT_EQ(filt.active_rows(0, 24), 2 * filt.active_rows(0, 12));
}

TEST(Filter, PreservesZonalMean) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> line(48);
  for (int i = 0; i < 48; ++i)
    line[static_cast<std::size_t>(i)] =
        3.5 + std::sin(2.0 * util::kPi * 11 * i / 48.0);
  const double mean_before = 3.5;
  filt.filter_line(line, /*sin_theta=*/0.05);
  double mean_after = 0.0;
  for (double v : line) mean_after += v;
  mean_after /= 48.0;
  EXPECT_NEAR(mean_after, mean_before, 1e-12);
}

TEST(Filter, DampsHighWavenumbersNearPole) {
  Fixture f;
  FourierFilter filt(f.ctx);
  // Highest resolvable wavenumber at a near-pole row must be damped hard.
  std::vector<double> line(48);
  for (int i = 0; i < 48; ++i)
    line[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1.0 : -1.0;
  filt.filter_line(line, /*sin_theta=*/0.05);
  double amp = 0.0;
  for (double v : line) amp = std::max(amp, std::abs(v));
  EXPECT_LT(amp, 0.1) << "wavenumber nx/2 must be strongly damped";
}

TEST(Filter, NearEquatorLineAlmostUntouched) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> line(48), orig(48);
  for (int i = 0; i < 48; ++i) {
    line[static_cast<std::size_t>(i)] =
        std::sin(2.0 * util::kPi * 3 * i / 48.0);
    orig[static_cast<std::size_t>(i)] = line[static_cast<std::size_t>(i)];
  }
  // sin(theta) = 1: damping factor min(1, aspect/sin(pi m/n)) with aspect
  // = 1: only wavenumbers near n/2 touched; m=3 untouched.
  filt.filter_line(line, 1.0);
  for (int i = 0; i < 48; ++i)
    EXPECT_NEAR(line[static_cast<std::size_t>(i)],
                orig[static_cast<std::size_t>(i)], 1e-10);
}

// filter_line against a direct reference: full-length fft::dft forward,
// damping min(1, sin(theta) nx / (2 ny) / sin(pi m / nx)) evaluated with
// std::sin on bins m and nx - m, fft::dft inverse.  Pins the precomputed
// damping and real-split tables at a polar row and at the last row inside
// the filter band, on a mixed-radix (96) and a Bluestein (34) line.
TEST(Filter, FilterLineMatchesDirectReference) {
  for (const int nx : {96, 34}) {
    const int ny = nx / 2;
    Fixture f(nx, ny, 4);
    FourierFilter filt(f.ctx);
    int edge = 0;
    while (filt.row_active(edge + 1)) ++edge;
    ASSERT_LT(edge, ny / 2) << "band must end before the equator";
    for (const int gj : {0, edge}) {
      const double sin_theta = std::sin((gj + 0.5) * util::kPi / ny);
      const auto n = static_cast<std::size_t>(nx);
      std::vector<double> line(n);
      for (std::size_t i = 0; i < n; ++i)
        line[i] = std::sin(0.37 * static_cast<double>(i * i) + gj) +
                  0.5 * std::cos(2.9 * static_cast<double>(i));
      double max_abs = 0.0;
      for (double v : line) max_abs = std::max(max_abs, std::abs(v));

      std::vector<fft::cplx> in(n), spec(n), back(n);
      for (std::size_t i = 0; i < n; ++i) in[i] = fft::cplx{line[i], 0.0};
      fft::dft(in, spec, /*inverse=*/false);
      for (std::size_t m = 1; m <= n / 2; ++m) {
        const double d = std::min(
            1.0, sin_theta * nx / (2.0 * ny) /
                     std::sin(util::kPi * static_cast<double>(m) / nx));
        spec[m] *= d;
        if (m != n - m) spec[n - m] *= d;
      }
      fft::dft(spec, back, /*inverse=*/true);

      filt.filter_line(line, sin_theta);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(line[i], back[i].real(), 1e-12 * max_abs)
            << "nx=" << nx << " row=" << gj << " i=" << i;
    }
  }
}

TEST(Filter, IsLinear) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> a(48), b(48), combo(48);
  for (int i = 0; i < 48; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(0.7 * i);
    b[static_cast<std::size_t>(i)] = std::cos(1.3 * i + 0.4);
    combo[static_cast<std::size_t>(i)] =
        2.0 * a[static_cast<std::size_t>(i)] -
        0.5 * b[static_cast<std::size_t>(i)];
  }
  filt.filter_line(a, 0.1);
  filt.filter_line(b, 0.1);
  filt.filter_line(combo, 0.1);
  for (int i = 0; i < 48; ++i)
    EXPECT_NEAR(combo[static_cast<std::size_t>(i)],
                2.0 * a[static_cast<std::size_t>(i)] -
                    0.5 * b[static_cast<std::size_t>(i)],
                1e-10);
}

TEST(Filter, IsAContraction) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> line(48);
  double energy_before = 0.0;
  for (int i = 0; i < 48; ++i) {
    line[static_cast<std::size_t>(i)] = std::sin(1.9 * i) + 0.3 * (i % 5);
    energy_before +=
        line[static_cast<std::size_t>(i)] * line[static_cast<std::size_t>(i)];
  }
  filt.filter_line(line, 0.08);
  double energy_after = 0.0;
  for (double v : line) energy_after += v * v;
  EXPECT_LE(energy_after, energy_before + 1e-12);
}

TEST(Filter, ApplyLocalTouchesOnlyActiveRows) {
  Fixture f;
  FourierFilter filt(f.ctx);
  state::State s(48, 24, 4, core::halos_for_depth(1));
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 24; ++j)
      for (int i = 0; i < 48; ++i)
        s.phi()(i, j, k) = std::sin(0.9 * i) * (j + 1);
  state::State before(48, 24, 4, core::halos_for_depth(1));
  before.assign(s, s.interior());
  filt.apply_local(f.ctx, s, s.interior());
  for (int j = 0; j < 24; ++j) {
    bool changed = false;
    for (int k = 0; k < 4 && !changed; ++k)
      for (int i = 0; i < 48 && !changed; ++i)
        if (s.phi()(i, j, k) != before.phi()(i, j, k)) changed = true;
    EXPECT_EQ(changed, filt.row_active(j)) << "row " << j;
  }
}

TEST(Filter, DistributedMatchesLocal) {
  // The X-Y decomposition's allgather-based filter must reproduce the
  // single-rank result exactly.
  const int nx = 48, ny = 24, nz = 4;
  Fixture f(nx, ny, nz);
  FourierFilter filt(f.ctx);
  state::State ref(nx, ny, nz, core::halos_for_depth(1));
  auto init = [&](state::State& s, const mesh::DomainDecomp& d) {
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) {
          const int gi = d.gi(i), gj = d.gj(j);
          s.u()(i, j, k) = std::sin(0.5 * gi + gj) + 0.1 * k;
          s.v()(i, j, k) = std::cos(0.8 * gi - gj);
          s.phi()(i, j, k) = std::sin(1.7 * gi) * gj;
        }
    for (int j = 0; j < d.lny(); ++j)
      for (int i = 0; i < d.lnx(); ++i)
        s.psa()(i, j) = 100.0 * std::sin(0.3 * d.gi(i) + d.gj(j));
  };
  init(ref, f.decomp);
  filt.apply_local(f.ctx, ref, ref.interior());

  comm::Runtime::run(4, [&](comm::Context& cc) {
    auto topo = comm::make_cart(cc, cc.world(), {4, 1, 1},
                                {true, false, false});
    mesh::LatLonMesh mesh(nx, ny, nz);
    auto levels = mesh::SigmaLevels::uniform(nz);
    state::Stratification strat(levels);
    mesh::DomainDecomp d(mesh, {4, 1, 1}, topo.coords);
    OpContext ctx{&mesh, &levels, &strat, &d, ModelParams{}};
    FourierFilter dfilt(ctx);
    state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    init(s, d);
    dfilt.apply_distributed(ctx, cc, topo.line_x, s, s.interior());
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) {
          EXPECT_NEAR(s.u()(i, j, k), ref.u()(d.gi(i), d.gj(j), k), 1e-12);
          EXPECT_NEAR(s.phi()(i, j, k), ref.phi()(d.gi(i), d.gj(j), k),
                      1e-12);
        }
    for (int j = 0; j < d.lny(); ++j)
      for (int i = 0; i < d.lnx(); ++i)
        EXPECT_NEAR(s.psa()(i, j), ref.psa()(d.gi(i), d.gj(j)), 1e-12);
  });
}

}  // namespace
}  // namespace ca::ops
