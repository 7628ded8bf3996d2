// perfbench: the repository benchmark's binary (perfbench/run.py builds
// and runs it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --calibrate --seed <n> --seconds <s>   (service capacity)
//
// With --trace 0 it prints every end-to-end metric, with --trace 1 every
// per-layer metric (the traced run).  Standard output carries two JSON
// lines: provenance and run details first, the result last.  Human
// readable progress goes to standard error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics a user of the system sees (BENCHMARK.json end_to_end).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"step_norm_ms_p50", "ms"},
    {"step_norm_ms_p90", "ms"},
    {"norm_cpu_s_per_model_day", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics of the traced run (BENCHMARK.json per_layer).  A
/// metric of a layer the workload does not exercise (the service layer and
/// the load generator outside wave_orig_1x2x2's service probe) reads 0.
constexpr MetricDef kPerLayer[] = {
    {"ops.A_ns_per_cell", "ns"},
    {"ops.C_ns_per_cell", "ns"},
    {"ops.L_ns_per_cell", "ns"},
    {"ops.F_ns_per_cell", "ns"},
    {"ops.S_ns_per_cell", "ns"},
    {"fft.real_line_us", "us"},
    {"core.busy_imbalance", "ratio"},
    {"core.health_ms", "ms"},
    {"comm.msgs_per_step", "count"},
    {"comm.bytes_per_step", "B"},
    {"comm.collectives_per_step", "count"},
    {"comm.wait_frac", "ratio"},
    {"comm.pack_frac", "ratio"},
    {"comm.halo_round_us", "us"},
    {"comm.allreduce_us", "us"},
    {"physics.hs_ms", "ms"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p90_s", "s"},
    {"service.run_s_p50", "s"},
    {"service.utilization", "ratio"},
    {"service.preemptions", "count"},
    {"service.refused", "count"},
    {"service.submit_us_p90", "us"},
    {"service.backlog_end", "count"},
    {"ckpt.write_ms_p50", "ms"},
    {"ckpt.bytes_per_write", "B"},
    {"ckpt.restore_ms_p50", "ms"},
    {"ckpt.service_restore_ms_p50", "ms"},
    {"setup.spawn_ms", "ms"},
    {"setup.core_ctor_ms", "ms"},
    {"setup.initialize_ms", "ms"},
    {"bench.gen_lag_p90_ms", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hs_ca_1x4x1|"
               "wave_orig_1x2x2> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] | --calibrate ...\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv, bool& calibrate) {
  Args a;
  calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--calibrate") {
      calibrate = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload")
        a.workload = val;
      else if (key == "--seed")
        a.seed = std::stoull(val);
      else if (key == "--seconds")
        a.seconds = std::stod(val);
      else if (key == "--trace")
        a.trace = std::stoi(val) != 0;
      else if (key == "--out-dir")
        a.out_dir = val;
      else
        usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  bool calibrate = false;
  const Args args = parse(argc, argv, calibrate);
  std::filesystem::create_directories(args.out_dir);

  Result r;
  try {
    if (calibrate)
      r = run_ensemble_capacity(args);
    else if (args.workload == "hs_ca_1x4x1" ||
             args.workload == "wave_orig_1x2x2")
      r = run_dycore_workload(args);
    else
      usage(("unknown workload '" + args.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (!calibrate) {
    r.set("failed_frac",
          r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
          "ratio");
    // Emit exactly the metric set of the mode.  A missing end-to-end
    // metric is a bug; a missing per-layer metric is an unexercised layer.
    std::map<std::string, std::pair<double, std::string>> out;
    for (const MetricDef& m : args.trace ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd)) {
      auto it = r.metrics.find(m.name);
      if (it != r.metrics.end()) {
        out[m.name] = {it->second.first, m.unit};
      } else if (args.trace) {
        out[m.name] = {0.0, m.unit};
      } else {
        std::fprintf(stderr, "perfbench: metric %s missing\n", m.name);
        return 1;
      }
    }
    r.metrics = std::move(out);
  }

  r.provenance["workload"] = args.workload;
  r.provenance["seed"] = static_cast<double>(args.seed);
  r.provenance["seconds"] = args.seconds;
  r.provenance["trace"] = args.trace;
  r.provenance["compiler"] = PERFBENCH_COMPILER;
  r.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  r.provenance["nproc"] = static_cast<double>(std::thread::hardware_concurrency());

  ca::util::Json info = ca::util::Json::object();
  info["provenance"] = r.provenance;
  info["details"] = r.details;
  ca::util::Json problems = ca::util::Json::array();
  for (const auto& p : r.problems) problems.push_back(p);
  info["problems"] = problems;

  ca::util::Json metrics = ca::util::Json::object();
  for (const auto& [name, vu] : r.metrics) {
    ca::util::Json m = ca::util::Json::object();
    m["value"] = vu.first;
    m["unit"] = vu.second;
    metrics[name] = m;
    std::fprintf(stderr, "  %-30s %14.6g %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  }
  for (const auto& p : r.problems) std::fprintf(stderr, "  problem: %s\n", p.c_str());
  ca::util::Json result = ca::util::Json::object();
  result["correct"] = r.correct;
  result["attempted"] = static_cast<double>(std::max<std::int64_t>(1, r.attempted));
  result["failed"] = static_cast<double>(r.failed);
  result["metrics"] = metrics;
  std::printf("%s\n%s\n", info.dump(0).c_str(), result.dump(0).c_str());
  return 0;
}
