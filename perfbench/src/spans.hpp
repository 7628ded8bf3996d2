// The benchmark's own tracing, clock and statistics helpers.
//
// SpanLog keeps spans recorded around calls into the library's public
// functions (the library itself gets no new spans): each span has a name,
// a start and end on the library's steady trace clock
// (obs::Tracer::now_us, so bench spans merge with the program's own
// obs.trace spans), the id of the span that caused it, and a run id (the
// campaign segment or the job).  Spans stay in memory and are exported
// once, at the end, into an obs::TraceCollector as a Chrome trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace obs = ca::obs;

/// Microseconds on the library's process-wide trace clock.
double now_us();

/// CPU time [us] of the calling thread, and of the whole process (every
/// thread, live or exited).  Both count only time the thread ran:
/// waiting while blocked, waiting for a processor, and time the
/// hypervisor of a virtual machine gives to other guests ("steal") are
/// left out.  That makes them the benchmark's clocks for everything whose
/// wall time swings with other tenants of a shared host.
double thread_cpu_us();
double process_cpu_us();

/// Runs a fixed kernel of the benchmark's own and returns the calling
/// thread's CPU seconds for it.  It mixes, in about equal parts of its
/// time, the three kinds of work a dynamical-core step does: vectorisable
/// stencil sweeps, FFT butterflies and a dependent scalar chain.  Timed
/// beside a workload, it measures how fast the host's cores run at that
/// moment, so that CPU times can be scaled to one reference speed (see
/// kReferenceKernelSeconds).  No single kind of work tracked the
/// workloads' speed: the stencil alone over-corrected, the scalar chain
/// barely moved (perfbench/README.md).
double reference_kernel_cpu_s();

/// CPU seconds of reference_kernel_cpu_s() that define the reference
/// speed: about its typical time on the 4-vCPU x86 virtual machine this
/// benchmark was written on (Release build).
inline constexpr double kReferenceKernelSeconds = 1.8e-3;

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a closed span [t0_us, t1_us]; returns its id (-1 when
  /// disabled).  `parent` is the id of the causing span (-1 = root).
  /// Thread-safe: rank threads record concurrently.
  int record(const char* name, double t0_us, double t1_us, int parent,
             int run, int tid = 0);

  /// Opens a span now; close() stamps its end.  Returns -1 when disabled.
  int open(const char* name, int parent, int run, int tid = 0);
  void close(int id);

  std::size_t size() const;

  /// Adds every span to `sink` under process id `pid`, one thread per
  /// tid; args.detail carries "id=<id> parent=<id> run=<id>".
  void export_to(obs::TraceCollector& sink, int pid) const;

 private:
  struct Rec {
    const char* name;
    double t0_us;
    double t1_us;
    int parent;
    int run;
    int tid;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

/// Writes `log` as a Chrome trace to `path` (through obs::TraceCollector)
/// and checks it with obs::validate_chrome_trace; a rejected or
/// unwritable trace is a correctness problem of the run.
void export_trace(const SpanLog& log, const std::string& path, Result& r);

/// Linear-interpolated quantile q in [0, 1] of `v` (copied); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Times `fn` call by call (one span each, under `parent`): one warm-up
/// call, then at least `min_calls` calls and until `min_seconds` have
/// passed (capped at 400 calls).  Returns the median seconds of one call.
/// Probes of collective operations pass min_seconds = 0 so that every
/// rank makes exactly the same number of calls.
template <typename Fn>
double median_call_seconds(SpanLog& log, const char* name, int parent,
                           int run, Fn&& fn, int tid = 0, int min_calls = 9,
                           double min_seconds = 0.15) {
  constexpr int kMaxCalls = 400;
  fn();
  std::vector<double> calls;
  const double start = now_us();
  while (static_cast<int>(calls.size()) < min_calls ||
         (now_us() - start < min_seconds * 1e6 &&
          static_cast<int>(calls.size()) < kMaxCalls)) {
    const double t0 = now_us();
    fn();
    const double t1 = now_us();
    log.record(name, t0, t1, parent, run, tid);
    calls.push_back((t1 - t0) * 1e-6);
  }
  return quantile(calls, 0.5);
}

/// Peak resident set of this process [MiB] (VmHWM), 0 when unavailable.
double peak_rss_mib();

/// Deterministic uniform double in [0, 1) from a 64-bit generator state
/// (splitmix64), identical on every platform for a given seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

}  // namespace perfbench
