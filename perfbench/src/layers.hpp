// Per-layer probes that need no process grid: the paper's operators on a
// SerialCore op_context (as bench/bench_kernels.cpp does) and the real
// FFT line transform the Fourier filter uses.  The probes that need a
// rank group (halo round, z-line allreduce, health check, forcing,
// checkpoint) run inside the workload's own rank group; see dycore.hpp.
#pragma once

#include "bench.hpp"
#include "spans.hpp"
#include "state/initial.hpp"

namespace perfbench {

/// Median nanoseconds per owned cell of one call of each operator on an
/// nx x ny x nz mesh with iteration count M.
struct OpsTimes {
  double A = 0.0;  ///< ops::apply_adaptation
  double C = 0.0;  ///< vertical integrals (core::compute_diagnostics)
  double L = 0.0;  ///< ops::apply_advection
  double F = 0.0;  ///< ops::FourierFilter::apply_local
  double S = 0.0;  ///< ops::apply_smoothing
};

OpsTimes time_ops(int nx, int ny, int nz, int M,
                  const ca::state::InitialOptions& ic, SpanLog& log,
                  int parent);

/// Median microseconds of one fft::RealPlan forward + inverse of length n.
double time_real_line_us(int n, SpanLog& log, int parent);

/// Stores the ops/fft probes into `r` under their per-layer names.
void set_serial_layer_metrics(Result& r, const OpsTimes& ops,
                              double real_line_us);

}  // namespace perfbench
