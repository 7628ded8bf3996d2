// Schedule builders: emit the per-rank communication/computation program
// of one time step of each algorithm variant (original X-Y, original Y-Z,
// communication-avoiding) for the perf event simulator.  The emitted op
// stream mirrors the functional cores op-for-op — message counts and byte
// volumes are asserted equal to the runtime's traffic statistics by
// tests/schedule_match_test.cpp — which is what makes the full-scale
// (p = 128..1024) simulated figures trustworthy.
#pragma once

#include "core/ca_core.hpp"
#include "core/dycore_config.hpp"
#include "perf/lower_bounds.hpp"
#include "perf/machine.hpp"
#include "perf/schedule.hpp"

namespace ca::core {

struct ScheduleParams {
  perf::MeshShape mesh{720, 360, 30};
  perf::ProcGrid grid{1, 128, 8};
  int M = 3;
  /// Steps to emit (the schedule is periodic; results scale linearly).
  int steps = 1;
  /// Number of 3-D prognostic fields exchanged (U, V, Phi).
  int fields3d = 3;
  /// Calibrated computation densities [flops per mesh point per update].
  double flops_adapt = 160.0;
  double flops_advect = 200.0;
  double flops_smooth = 70.0;
  double flops_column = 25.0;
  /// The CA core's algorithm switches (approximate iteration, C faces).
  CAOptions ca;
  /// Overlap the CA exchanges with the inner computation (off = blocking
  /// exchange before any computation).  Modeled only: the functional CA
  /// core always overlaps.
  bool overlap = true;
  /// Fuse the split smoothing into the CA adaptation exchange (off = a
  /// separate smoothing exchange, like the original algorithm).  Modeled
  /// only: the functional CA core always fuses.
  bool fuse_smoothing = true;
};

/// Phase labels used by the builders (matched by the figure benches).
inline constexpr const char* kPhaseStencil = "stencil";
inline constexpr const char* kPhaseCollective = "collective";
inline constexpr const char* kPhaseCompute = "compute";

perf::Schedule build_original_schedule(const ScheduleParams& params,
                                       DecompScheme scheme,
                                       const perf::MachineModel& machine);

perf::Schedule build_ca_schedule(const ScheduleParams& params,
                                 const perf::MachineModel& machine);

/// Fourier-filter rows the model charges `rank` per update: the rows of
/// its y block inside the functional filter's default band
/// (ops::ModelParams::filter_band), counted with ops::filter_row_active.
int modeled_filter_rows(const ScheduleParams& params, int rank);

}  // namespace ca::core
