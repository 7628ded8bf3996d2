// The contract that makes the full-scale simulated figures trustworthy:
// the schedule builders must emit exactly the message counts and byte
// volumes the functional runtime produces, for both algorithms, across
// decompositions.
#include <gtest/gtest.h>

#include <vector>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/original_core.hpp"
#include "core/schedule_builders.hpp"
#include "mesh/decomp.hpp"
#include "ops/filter.hpp"
#include "perf/event_sim.hpp"

namespace ca::core {
namespace {

DycoreConfig func_config() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 16;
  c.M = 2;
  return c;
}

ScheduleParams model_params(const DycoreConfig& c, perf::ProcGrid grid) {
  ScheduleParams p;
  p.mesh = {c.nx, c.ny, c.nz};
  p.grid = grid;
  p.M = c.M;
  p.steps = 1;
  return p;
}

struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t collectives = 0;
};

/// One steady-state step's traffic of the functional core.
template <typename MakeCore>
Traffic functional_traffic(int p, MakeCore make, int warmup_steps) {
  Traffic out;
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    auto core = make(ctx);
    auto xi = core->make_state();
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core->initialize(xi, opt);
    for (int w = 0; w < warmup_steps; ++w) core->step(xi);
    const auto s0 = ctx.stats().grand_totals();
    core->step(xi);
    const auto s1 = ctx.stats().grand_totals();
    if (ctx.world_rank() == 0) {
      // Totals are per-rank; aggregate across ranks via a reduce.
      // Simpler: every rank reports; sum at rank 0 through the world.
    }
    std::vector<std::uint64_t> mine{
        s1.p2p_messages - s0.p2p_messages, s1.p2p_bytes - s0.p2p_bytes,
        s1.collective_calls - s0.collective_calls};
    std::vector<std::uint64_t> total(3);
    // Sum across ranks (collective itself perturbs counts only after we
    // snapshot).
    std::vector<long long> in{static_cast<long long>(mine[0]),
                              static_cast<long long>(mine[1]),
                              static_cast<long long>(mine[2])};
    std::vector<long long> sum(3);
    comm::allreduce<long long>(ctx, ctx.world(), in, sum,
                               comm::ReduceOp::kSum);
    if (ctx.world_rank() == 0) {
      out.messages = static_cast<std::uint64_t>(sum[0]);
      out.bytes = static_cast<std::uint64_t>(sum[1]);
      out.collectives = static_cast<std::uint64_t>(sum[2]);
    }
  });
  return out;
}

Traffic modeled_traffic(const perf::Schedule& schedule) {
  const auto result = perf::simulate(schedule, perf::MachineModel::tianhe2());
  Traffic t;
  t.messages = result.phase_total_messages(kPhaseStencil);
  t.bytes = result.phase_total_bytes(kPhaseStencil);
  for (const auto& r : result.ranks) {
    auto it = r.phases.find(kPhaseCollective);
    if (it != r.phases.end()) t.collectives += it->second.collectives;
  }
  return t;
}

struct MatchCase {
  std::array<int, 3> dims;
  const char* name;
};

class OriginalYZMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(OriginalYZMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::kYZ,
                                              dims);
      },
      /*warmup=*/0);
  auto sched = build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}), DecompScheme::kYZ,
      perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
}

INSTANTIATE_TEST_SUITE_P(Decomps, OriginalYZMatch,
                         ::testing::Values(MatchCase{{1, 2, 1}, "py2"},
                                           MatchCase{{1, 4, 1}, "py4"},
                                           MatchCase{{1, 1, 2}, "pz2"},
                                           MatchCase{{1, 2, 2}, "py2pz2"},
                                           MatchCase{{1, 4, 2}, "py4pz2"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

class OriginalXYMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(OriginalXYMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::kXY,
                                              dims);
      },
      0);
  auto sched = build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}), DecompScheme::kXY,
      perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
}

INSTANTIATE_TEST_SUITE_P(Decomps, OriginalXYMatch,
                         ::testing::Values(MatchCase{{2, 1, 1}, "px2"},
                                           MatchCase{{2, 2, 1}, "px2py2"},
                                           MatchCase{{4, 2, 1}, "px4py2"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

class Original3DMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(Original3DMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::k3D,
                                              dims);
      },
      0);
  auto sched = build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}), DecompScheme::k3D,
      perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
}

INSTANTIATE_TEST_SUITE_P(Decomps, Original3DMatch,
                         ::testing::Values(MatchCase{{2, 2, 2}, "p2x2x2"},
                                           MatchCase{{2, 2, 4}, "p2x2x4"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

class CAMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(CAMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  // Steady-state step (the first step skips the fused smoothing and seeds
  // the column anchors): warm up one step.
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) { return std::make_unique<CACore>(c, ctx, dims); },
      /*warmup=*/1);
  auto sched = build_ca_schedule(model_params(c, {dims[0], dims[1], dims[2]}),
                                 perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
}

INSTANTIATE_TEST_SUITE_P(Decomps, CAMatch,
                         ::testing::Values(MatchCase{{1, 2, 1}, "py2"},
                                           MatchCase{{1, 2, 2}, "py2pz2"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

TEST(ScheduleShape, CAReducesExchangeRoundsTo2) {
  // Count waitall ops per rank per step: original 3M + 4, CA 2.
  ScheduleParams p = model_params(func_config(), {1, 4, 2});
  auto orig = build_original_schedule(p, DecompScheme::kYZ,
                                      perf::MachineModel::tianhe2());
  auto caa = build_ca_schedule(p, perf::MachineModel::tianhe2());
  auto count_waits = [](const perf::Schedule& s, int rank) {
    int n = 0;
    for (const auto& op : s.program(rank))
      if (op.kind == perf::OpKind::kWaitAll) ++n;
    return n;
  };
  EXPECT_EQ(count_waits(orig, 0), 3 * p.M + 4);
  EXPECT_EQ(count_waits(caa, 0), 2);
}

TEST(ScheduleShape, ModeledRuntimeOrderingMatchesPaper) {
  // At the paper's scale the modeled runtimes must order XY > YZ > CA.
  ScheduleParams p;
  p.mesh = {720, 360, 30};
  p.M = 3;
  p.steps = 1;
  const auto m = perf::MachineModel::tianhe2();
  p.grid = {1, 64, 8};
  const double t_yz =
      perf::simulate(build_original_schedule(p, DecompScheme::kYZ, m), m)
          .makespan;
  const double t_ca = perf::simulate(build_ca_schedule(p, m), m).makespan;
  p.grid = {32, 16, 1};
  const double t_xy =
      perf::simulate(build_original_schedule(p, DecompScheme::kXY, m), m)
          .makespan;
  EXPECT_GT(t_xy, t_yz);
  EXPECT_GT(t_yz, t_ca);
}

TEST(FilterRows, ModelChargesTheRowsTheFunctionalFilterTransforms) {
  // The modeled F cost of every rank counts the same rows the functional
  // filter transforms in that rank's y block, at the default band.
  struct Case {
    int nx, ny;
    std::vector<int> pys;
  };
  for (const Case& c : {Case{96, 48, {1, 2, 4, 5, 16}},
                        Case{720, 360, {1, 7, 64, 128}}}) {
    const mesh::LatLonMesh mesh(c.nx, c.ny, 8);
    ops::OpContext ctx;
    ctx.mesh = &mesh;
    const ops::FourierFilter filt(ctx);
    for (int py : c.pys) {
      SCOPED_TRACE(::testing::Message()
                   << c.nx << "x" << c.ny << " py=" << py);
      ScheduleParams p;
      p.mesh = {c.nx, c.ny, 8};
      p.grid = {1, py, 2};
      int total = 0;
      for (int cz = 0; cz < 2; ++cz)
        for (int cy = 0; cy < py; ++cy) {
          const mesh::DomainDecomp d(mesh, {1, py, 2}, {0, cy, cz});
          const int rows = modeled_filter_rows(p, cy + py * cz);
          EXPECT_EQ(rows, filt.active_rows(d.yr().begin, d.yr().end()))
              << "rank (" << cy << ", " << cz << ")";
          if (cz == 0) total += rows;
        }
      EXPECT_EQ(total, filt.active_rows(0, c.ny));
    }
  }
  // 1.0 rad from each pole: 115 of 360 rows per pole at 720x360.
  const mesh::LatLonMesh paper(720, 360, 30);
  ops::OpContext ctx;
  ctx.mesh = &paper;
  EXPECT_EQ(ops::FourierFilter(ctx).active_rows(0, 360), 2 * 115);
}

}  // namespace
}  // namespace ca::core
