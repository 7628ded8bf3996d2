// Shared types of the repository benchmark: command-line arguments, the
// result each workload returns, and the entry points of the workloads.
// Workload definitions (and why each exists) live next to their code in
// dycore.cpp (the service probe in ensemble.cpp); perfbench/README.md
// summarises them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for traces, checkpoints and flight
  /// dumps; created by run.py.
  std::string out_dir = ".bench_build/out";
};

/// What one workload run reports.  `attempted`/`failed` count the
/// workload's operations (campaign segments or ensemble jobs); `correct`
/// is false when any output failed its correctness gate.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  ca::util::Json provenance = ca::util::Json::object();
  ca::util::Json details = ca::util::Json::object();
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

class SpanLog;

/// hs_ca_1x4x1 and wave_orig_1x2x2.
Result run_dycore_workload(const Args& args);
/// The service probe of a traced run: an open loop of ensemble jobs over
/// `window_s` seconds (arrivals drawn from args.seed), with bench spans
/// in `log`; stores the service.*, ckpt.service_restore_ms_p50 and
/// bench.gen_lag_p90_ms metrics and counts its jobs into `r`.
void probe_service(const Args& args, double window_s, SpanLog& log,
                   Result& r);
/// Saturates the ensemble pool with the service probe's job mix (closed
/// loop) and reports completed jobs per second: how the probe's frozen
/// arrival rate was chosen.  Not part of any workload run.
Result run_ensemble_capacity(const Args& args);

}  // namespace perfbench
