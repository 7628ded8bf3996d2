#include "layers.hpp"

#include <cmath>
#include <vector>

#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "fft/fft.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/filter.hpp"
#include "ops/smoothing.hpp"

namespace perfbench {

using namespace ca;

OpsTimes time_ops(int nx, int ny, int nz, int M,
                  const state::InitialOptions& ic, SpanLog& log,
                  int parent) {
  core::DycoreConfig c;
  c.nx = nx;
  c.ny = ny;
  c.nz = nz;
  c.M = M;
  core::SerialCore core(c);
  state::State xi = core.make_state();
  state::State tend = core.make_state();
  ops::DiagWorkspace ws(nx, ny, nz, core::halos_for_depth(1));
  core.initialize(xi, ic);
  core.fill_boundaries(xi);
  const ops::OpContext& ctx = core.op_context();
  auto diagnostics = [&] {
    core::compute_diagnostics(ctx, nullptr, nullptr, xi, xi.interior(), ws,
                              false, comm::AllreduceAlgorithm::kAuto,
                              "perfbench");
  };
  diagnostics();
  ops::FourierFilter filter(ctx);
  // The filter works in place; it runs on a scratch copy so the other
  // operators keep seeing the initial state.
  state::State filtered = xi;

  const double cells = static_cast<double>(nx) * ny * nz;
  const int run = 0;
  OpsTimes t;
  t.A = 1e9 / cells * median_call_seconds(log, "ops.A", parent, run, [&] {
          ops::apply_adaptation(ctx, xi, ws.local, ws.vert, tend,
                                xi.interior());
        });
  t.C = 1e9 / cells *
        median_call_seconds(log, "ops.C", parent, run, diagnostics);
  t.L = 1e9 / cells * median_call_seconds(log, "ops.L", parent, run, [&] {
          ops::apply_advection(ctx, xi, ws.local, ws.vert, tend,
                               xi.interior());
        });
  t.F = 1e9 / cells * median_call_seconds(log, "ops.F", parent, run, [&] {
          filter.apply_local(ctx, filtered, filtered.interior());
        });
  t.S = 1e9 / cells * median_call_seconds(log, "ops.S", parent, run, [&] {
          ops::apply_smoothing(ctx, xi, tend, xi.interior());
        });
  return t;
}

double time_real_line_us(int n, SpanLog& log, int parent) {
  const auto len = static_cast<std::size_t>(n);
  fft::RealPlan plan(len);
  std::vector<double> line(len);
  std::vector<fft::cplx> spectrum(len / 2 + 1);
  std::vector<fft::cplx> scratch(plan.scratch_size());
  for (std::size_t i = 0; i < len; ++i)
    line[i] = std::sin(0.37 * static_cast<double>(i));
  // One timed call is a batch of 64 transforms: a single length-96 line
  // takes about a microsecond, below the clock's useful resolution.
  constexpr int kBatch = 64;
  const double s = median_call_seconds(log, "fft.real_line", parent, 0, [&] {
    for (int b = 0; b < kBatch; ++b) {
      plan.forward(line, spectrum, scratch);
      plan.inverse(spectrum, line, scratch);
    }
  });
  return 1e6 * s / kBatch;
}

void set_serial_layer_metrics(Result& r, const OpsTimes& ops,
                              double real_line_us) {
  r.set("ops.A_ns_per_cell", ops.A, "ns");
  r.set("ops.C_ns_per_cell", ops.C, "ns");
  r.set("ops.L_ns_per_cell", ops.L, "ns");
  r.set("ops.F_ns_per_cell", ops.F, "ns");
  r.set("ops.S_ns_per_cell", ops.S, "ns");
  r.set("fft.real_line_us", real_line_us, "us");
}

}  // namespace perfbench
