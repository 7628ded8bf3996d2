// Configuration sweeps of the original cores: M, vertical stretching, and
// scheme coverage with physics — broad smoke + equivalence coverage beyond
// the focused tests.
#include <gtest/gtest.h>

#include "comm/runtime.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "physics/held_suarez.hpp"

namespace ca::core {
namespace {

struct SweepCase {
  int M;
  bool stretched;
  int x_order;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return "M" + std::to_string(info.param.M) +
         (info.param.stretched ? "_str" : "_uni") + "_ord" +
         std::to_string(info.param.x_order);
}

DycoreConfig make(const SweepCase& c) {
  DycoreConfig cfg;
  cfg.nx = 24;
  cfg.ny = 16;
  cfg.nz = 8;
  cfg.M = c.M;
  cfg.stretched_levels = c.stretched;
  cfg.params.x_order = c.x_order;
  cfg.dt_adapt = 30.0;
  cfg.dt_advect = 120.0;
  cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return cfg;
}

class OriginalSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OriginalSweep, DistributedMatchesSerial) {
  const auto cfg = make(GetParam());
  SerialCore serial(cfg);
  auto ref = serial.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  serial.initialize(ref, opt);
  serial.run(ref, 2);

  comm::Runtime::run(4, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, DecompScheme::kYZ, {1, 2, 2});
    auto xi = core.make_state();
    core.initialize(xi, opt);
    core.run(xi, 2);
    auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) {
      EXPECT_LT(state::State::max_abs_diff(g, ref, ref.interior()), 1e-8);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Configs, OriginalSweep,
                         ::testing::Values(SweepCase{1, false, 4},
                                           SweepCase{2, false, 2},
                                           SweepCase{3, true, 4},
                                           SweepCase{4, false, 4},
                                           SweepCase{2, true, 2}),
                         case_name);

TEST(OriginalOptions, XYWithPhysicsRunsStably) {
  DycoreConfig cfg = make({2, false, 4});
  comm::Runtime::run(4, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, DecompScheme::kXY, {4, 1, 1});
    physics::HeldSuarezForcing forcing(core.op_context());
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kRandomPerturbation;
    core.initialize(xi, opt);
    for (int s = 0; s < 5; ++s) {
      core.step(xi);
      forcing.apply(xi, cfg.dt_advect);
    }
    auto d = reduce_diagnostics(
        ctx, ctx.world(), local_diagnostics(core.op_context(), xi));
    EXPECT_TRUE(std::isfinite(d.total_energy()));
    EXPECT_LT(d.max_abs_u, 100.0);
  });
}

TEST(OriginalOptions, ThreeDWithPhysicsRunsStably) {
  DycoreConfig cfg = make({2, false, 4});
  comm::Runtime::run(8, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, DecompScheme::k3D, {2, 2, 2});
    physics::HeldSuarezForcing forcing(core.op_context());
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kZonalJet;
    core.initialize(xi, opt);
    for (int s = 0; s < 3; ++s) {
      core.step(xi);
      forcing.apply(xi, cfg.dt_advect);
    }
    auto d = reduce_diagnostics(
        ctx, ctx.world(), local_diagnostics(core.op_context(), xi));
    EXPECT_TRUE(std::isfinite(d.total_energy()));
  });
}

}  // namespace
}  // namespace ca::core
