// One timed dynamical-core run ("window") on a rank group: runtime
// spawn, core construction and initialize (the set-up), then campaign
// segments (core::run_campaign with the health sentinel at cadence 1)
// until the time budget is spent, with every rank accounting for its own
// phases.  Optionally followed by the rank-level layer probes.  The
// ensemble workload reuses this for its probe of the long job's core.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/dycore_config.hpp"
#include "spans.hpp"
#include "state/initial.hpp"

namespace perfbench {

struct DycoreSpec {
  const char* name = "";
  bool ca = false;  ///< CACore (else OriginalCore, Y-Z scheme)
  std::array<int, 3> dims{1, 1, 1};
  int nx = 0, ny = 0, nz = 0, M = 3;
  bool forcing = false;    ///< Held-Suarez forcing after every step
  int segment_steps = 10;  ///< steps per campaign segment (one operation)
  bool service_probe = false;  ///< traced run adds the service probe

  int ranks() const { return dims[0] * dims[1] * dims[2]; }
  /// The default configuration a user gets (per-item exchange, overlap
  /// off) on this mesh.
  ca::core::DycoreConfig config() const;
};

/// One rank's own time and traffic over the timed segments.
struct RankAccount {
  double wall_s = 0.0;
  double exchange_s = 0.0;       ///< halo pack/post/unpack
  double exchange_wait_s = 0.0;  ///< blocked on halo messages
  double collective_s = 0.0;     ///< inside collectives
  std::uint64_t messages = 0, bytes = 0, collectives = 0;
  /// The rank thread's own CPU time in each step interval, in step order.
  std::vector<double> step_cpu_s;
  /// CPU seconds of reference_kernel_cpu_s() before each segment.
  std::vector<double> ref_cpu_s;
  /// Step intervals of each segment.
  std::vector<std::size_t> segment_steps;
};

/// Rank-level layer probes (medians of single calls).
struct RankProbe {
  double halo_round_us = 0.0;
  double allreduce_us = 0.0;
  double health_ms = 0.0;
  double hs_ms = 0.0;
  double ckpt_write_ms = 0.0;
  double ckpt_bytes = 0.0;
  double ckpt_restore_ms = 0.0;
};

struct SetupTimes {
  double cpu_s = 0.0;    ///< process CPU time of the whole set-up
  double total_s = 0.0;  ///< spawn start -> every rank initialized
  double spawn_s = 0.0;  ///< spawn start -> last rank entered
  double ctor_s = 0.0;   ///< core construction, slowest rank
  double init_s = 0.0;   ///< make_state + initialize, slowest rank
};

struct Window {
  SetupTimes setup;
  std::vector<double> step_s;     ///< rank 0's step intervals (wall)
  /// Per step: the busiest rank's CPU time, and all ranks' CPU summed;
  /// then both scaled to the reference speed of the step's segment.
  std::vector<double> step_cpu_max_s, step_cpu_sum_s;
  std::vector<double> step_norm_max_s, step_norm_sum_s;
  double ref_cpu_s = 0.0;  ///< median reference-kernel CPU over all ranks
  int steps = 0;
  int segments = 0;
  int failed_segments = 0;  ///< sentinel trips (NumericalError)
  std::vector<RankAccount> ranks;
  RankProbe probe;
  std::string error;  ///< an exception out of the rank group
};

struct WindowOptions {
  double seconds = 1.0;
  bool setup_only = false;  ///< return right after the set-up
  bool probe = false;       ///< run the rank-level layer probes afterwards
  std::string work_dir;  ///< flight dumps and probe checkpoints
  SpanLog* log = nullptr;
  int run_id = 0;
};

Window run_window(const DycoreSpec& spec, const ca::state::InitialOptions& ic,
                  const WindowOptions& opts);

/// Runs the set-up `reps` times (the last one continues into the timed
/// segments) and returns the final window with setup.* replaced by the
/// per-phase medians over all repetitions.
Window run_window_with_setup_reps(const DycoreSpec& spec,
                                  const ca::state::InitialOptions& ic,
                                  const WindowOptions& opts, int reps);

/// Stores the core/comm/physics/ckpt/setup per-layer metrics of a probed
/// window into `r` (no residuals: every ratio is one rank's own phases).
void set_rank_layer_metrics(Result& r, const Window& w);

}  // namespace perfbench
