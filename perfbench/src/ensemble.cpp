// The service probe: an open loop of independent ensemble members
// arriving as a seeded Poisson process at one frozen rate (8 jobs/s) and
// submitted with the non-blocking EnsembleService::submit.  It runs in
// the traced run of wave_orig_1x2x2 and gives the service, service-side
// checkpoint and load-generator metrics.
//
// Why: the only place where scheduling, queueing and the checkpoint
// layer matter.  Per-job work is small (24x16x8, M = 2), so per-job
// overheads (rank-group spawn, dispatch, checkpoint write/restore)
// dominate -- the opposite of hs_ca_1x4x1.  It LOADS service (queueing,
// preemption), util (checkpoint writes and restores of the preempted
// long jobs) and comm at small scale; it BYPASSES the large-mesh ops.F /
// fft cost and physics (no job applies forcing).
//
// Pool: rank budget 4 (= nproc of the reference box) and 3 slots; every
// other pool setting keeps its default except the directories
// (checkpoints and flight dumps go to a temporary directory inside the
// checkout).  Job classes (share of arrivals):
//   short_orig  original Y-Z 1x2x1, 6 steps, priority 2        (40%)
//   ca          CA 1x2x1, 6 steps, priority 1                  (30%)
//   serial      serial core, 4 steps, priority 1               (25%)
//   long_orig   original Y-Z 1x2x2, 32 steps, priority 0,       (5%)
//               checkpoint_every 4: preemptible; arrivals preempt it,
//               so checkpoint writes and restores run beside compute.
// A long job holds every rank, and arrivals then wait for its next
// checkpoint, so the turnaround p90 sits on those blocked arrivals.
// Each job draws one of four planetary-wave jet speeds; completed jobs
// are checked bitwise against a solo run_attempt of the same spec,
// computed before the open loop starts.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "service/runner.hpp"
#include "service/service.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace ca;

namespace {

struct JobClass {
  const char* name;
  service::CoreKind core;
  std::array<int, 3> dims;
  int steps;
  int priority;
  int checkpoint_every;
  double share;
};

constexpr JobClass kClasses[] = {
    {"short_orig", service::CoreKind::kOriginal, {1, 2, 1}, 6, 2, 0, 0.40},
    {"ca", service::CoreKind::kCA, {1, 2, 1}, 6, 1, 0, 0.30},
    {"serial", service::CoreKind::kSerial, {1, 1, 1}, 4, 1, 0, 0.25},
    {"long_orig", service::CoreKind::kOriginal, {1, 2, 2}, 32, 0, 4, 0.05},
};
constexpr int kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);
constexpr int kLongClass = 3;
constexpr int kVariants = 4;
constexpr int kSlots = 3;
constexpr int kRankBudget = 4;
/// Arrival rate [jobs/s], frozen at about a third of the pool's capacity
/// on this mix as measured by `perfbench --calibrate` (see README.md for
/// why not 70%).  It is never recomputed at run time, so every commit
/// sees identical arrivals for a given seed.
constexpr double kArrivalRate = 8.0;
/// Poll period of the generator/monitor thread.
constexpr auto kPoll = std::chrono::microseconds(500);

service::JobSpec make_spec(int cls, int variant) {
  const JobClass& c = kClasses[cls];
  service::JobSpec j;
  j.name = std::string(c.name) + "_v" + std::to_string(variant);
  j.core = c.core;
  j.config.nx = 24;
  j.config.ny = 16;
  j.config.nz = 8;
  j.config.M = 2;
  j.dims = c.dims;
  j.steps = c.steps;
  j.priority = c.priority;
  j.checkpoint_every = c.checkpoint_every;
  j.initial.kind = state::InitialCondition::kPlanetaryWave;
  j.initial.jet_speed = 27.0 + 2.0 * variant;
  return j;
}

struct Arrival {
  double due_s;
  int cls;
  int variant;
};

/// A Poisson process at `rate` over [0, seconds) conditioned on its
/// count: round(rate * seconds) arrival times drawn uniformly and sorted.
/// The class mix is stratified (exact shares, shuffled) and each class
/// cycles through its variants, so seeds vary the timing and order of the
/// arrivals but not the amount of work -- an unconditioned draw would make
/// jobs_per_s and the per-class work swing with the arrival count.
std::vector<Arrival> make_arrivals(std::uint64_t seed, double rate,
                                   double seconds) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<Arrival> out(n);
  for (Arrival& a : out) a.due_s = rng.uniform() * seconds;
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_s < b.due_s; });

  std::vector<int> classes;
  double acc = 0.0;
  for (int c = 0; c < kNumClasses; ++c) {
    acc += kClasses[c].share;
    const auto upto = c + 1 == kNumClasses
                          ? n
                          : static_cast<std::size_t>(std::llround(acc * n));
    while (classes.size() < upto) classes.push_back(c);
  }
  for (std::size_t i = n; i > 1; --i)
    std::swap(classes[i - 1], classes[static_cast<std::size_t>(
                                  rng.uniform() * static_cast<double>(i))]);
  int seen[kNumClasses] = {};
  for (std::size_t i = 0; i < n; ++i) {
    out[i].cls = classes[i];
    out[i].variant = seen[classes[i]]++ % kVariants;
  }
  return out;
}

bool bitwise_equal(const state::State& a, const state::State& b) {
  if (a.lnx() != b.lnx() || a.lny() != b.lny() || a.lnz() != b.lnz())
    return false;
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (int k = 0; k < a.lnz(); ++k)
    for (int j = 0; j < a.lny(); ++j)
      for (int i = 0; i < a.lnx(); ++i)
        if (!same(a.u()(i, j, k), b.u()(i, j, k)) ||
            !same(a.v()(i, j, k), b.v()(i, j, k)) ||
            !same(a.phi()(i, j, k), b.phi()(i, j, k)))
          return false;
  for (int j = 0; j < a.lny(); ++j)
    for (int i = 0; i < a.lnx(); ++i)
      if (!same(a.psa()(i, j), b.psa()(i, j))) return false;
  return true;
}

using RefKey = std::pair<int, int>;

/// Solo, uninterrupted references of every (class, variant) the arrival
/// list uses, through the same attempt machinery the pool runs.
std::map<RefKey, state::State> solo_references(
    const std::vector<Arrival>& arrivals, const std::string& dir) {
  std::map<RefKey, state::State> refs;
  for (const Arrival& a : arrivals) {
    const RefKey key{a.cls, a.variant};
    if (refs.count(key) != 0) continue;
    service::JobSpec spec = make_spec(a.cls, a.variant);
    spec.checkpoint_every = 0;
    auto res = service::run_attempt(spec, 1, 0, dir + "/solo", {});
    if (!res.completed(spec.steps))
      throw std::runtime_error("solo reference " + spec.name +
                               " failed: " + res.error);
    refs.emplace(key, std::move(res.global));
  }
  return refs;
}

service::ServiceOptions pool_options(const std::string& dir) {
  service::ServiceOptions o;
  o.slots = kSlots;
  o.rank_budget = kRankBudget;
  o.checkpoint_dir = dir;
  o.obs.dump_dir = dir;
  return o;
}

struct JobRec {
  int cls = 0;
  int id = -1;
  double due_us = 0.0;
  double submit_us = 0.0;     ///< submit call start
  double submit_cost_us = 0.0;
  double terminal_us = 0.0;
  bool refused = false;
  bool completed = false;
  service::JobMetrics metrics;
};

struct OpenLoop {
  std::vector<JobRec> jobs;
  double window_end_us = 0.0;
  double first_due_us = 0.0;
  double last_terminal_us = 0.0;
  std::vector<int> backlog_samples;  ///< in-flight jobs at each quarter
  int backlog_at_window_end = 0;
  double utilization = 0.0;
  std::uint64_t preemptions = 0;
  std::vector<double> turnaround_s;  ///< refused/failed = miss value
};

/// Runs one open loop over `arrivals` on a fresh service.  The caller's
/// thread is both the load generator (submits each job when due) and the
/// monitor (polls in-flight jobs, takes each terminal result, checks it).
OpenLoop run_open_loop(const std::vector<Arrival>& arrivals,
                       const std::map<RefKey, state::State>& refs,
                       double window_s, const std::string& dir, SpanLog& log,
                       Result& r) {
  OpenLoop out;
  const double setup_start = now_us();
  auto svc = std::make_unique<service::EnsembleService>(pool_options(dir));
  log.record("service_setup", setup_start, now_us(), -1, 0);

  const std::size_t n = arrivals.size();
  out.jobs.resize(n);
  std::vector<std::size_t> pending;
  const double t0 = now_us();
  out.window_end_us = t0 + window_s * 1e6;
  const int root = log.open("open_loop", -1, 0);
  std::size_t next = 0;
  int quarter = 1;
  while (next < n || !pending.empty()) {
    double now = now_us();
    while (next < n && t0 + arrivals[next].due_s * 1e6 <= now) {
      JobRec& j = out.jobs[next];
      j.cls = arrivals[next].cls;
      j.due_us = t0 + arrivals[next].due_s * 1e6;
      j.submit_us = now_us();
      j.id = svc->submit(make_spec(j.cls, arrivals[next].variant),
                         /*block=*/false);
      j.submit_cost_us = now_us() - j.submit_us;
      if (j.id < 0) {
        j.refused = true;
        j.terminal_us = j.submit_us + j.submit_cost_us;
      } else {
        pending.push_back(next);
      }
      ++next;
      now = now_us();
    }
    for (std::size_t k = 0; k < pending.size();) {
      JobRec& j = out.jobs[pending[k]];
      const auto st = svc->state(j.id);
      if (st != service::JobState::kCompleted &&
          st != service::JobState::kFailed) {
        ++k;
        continue;
      }
      j.terminal_us = now_us();
      service::JobResult res = svc->result(j.id);
      j.metrics = res.metrics;
      j.completed = res.state == service::JobState::kCompleted;
      if (j.completed &&
          (res.state_already_taken ||
           !bitwise_equal(res.final_state,
                          refs.at({j.cls, arrivals[pending[k]].variant}))))
        r.problem("job " + res.name + " (id " + std::to_string(j.id) +
                  ") differs from its solo run");
      pending[k] = pending.back();
      pending.pop_back();
    }
    while (quarter <= 4 && now >= t0 + window_s * 1e6 * quarter / 4) {
      out.backlog_samples.push_back(static_cast<int>(pending.size()));
      if (quarter == 4)
        out.backlog_at_window_end = static_cast<int>(pending.size());
      ++quarter;
    }
    double wake = now + std::chrono::duration<double, std::micro>(kPoll).count();
    if (next < n) wake = std::min(wake, t0 + arrivals[next].due_s * 1e6);
    const double sleep_us = wake - now_us();
    if (sleep_us > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(sleep_us));
  }
  log.close(root);
  while (quarter <= 4) {
    out.backlog_samples.push_back(0);
    ++quarter;
  }
  const util::Json report = svc->report();
  const std::string bad = service::validate_report(report);
  if (!bad.empty()) r.problem("service report invalid: " + bad);
  out.utilization = report.find("service")->find("utilization")->as_double();
  out.preemptions = svc->preemptions();
  svc.reset();

  out.first_due_us = n > 0 ? out.jobs.front().due_us : t0;
  out.last_terminal_us = out.first_due_us;
  for (const JobRec& j : out.jobs)
    out.last_terminal_us = std::max(out.last_terminal_us, j.terminal_us);
  // A refused or failed job misses every latency limit: it counts with a
  // turnaround longer than the whole run.
  const double miss_s = (out.last_terminal_us - out.first_due_us) * 1e-6 + 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobRec& j = out.jobs[i];
    out.turnaround_s.push_back(j.completed
                                   ? (j.terminal_us - j.due_us) * 1e-6
                                   : miss_s);
    if (log.enabled()) {
      const int job = log.record("job", j.due_us, j.terminal_us, root,
                                 static_cast<int>(i));
      log.record("submit_lag", j.due_us, j.submit_us, job,
                 static_cast<int>(i));
      log.record("submit", j.submit_us, j.submit_us + j.submit_cost_us, job,
                 static_cast<int>(i));
      if (!j.refused)
        log.record("in_service", j.submit_us + j.submit_cost_us,
                   j.terminal_us, job, static_cast<int>(i));
    }
  }
  return out;
}

void count_jobs(Result& r, const OpenLoop& o) {
  for (const JobRec& j : o.jobs) {
    ++r.attempted;
    if (!j.completed) ++r.failed;
  }
}

std::vector<double> gen_lag_ms(const OpenLoop& o) {
  std::vector<double> lag;
  for (const JobRec& j : o.jobs) lag.push_back((j.submit_us - j.due_us) * 1e-3);
  return lag;
}

void set_details(Result& r, const OpenLoop& o) {
  int refused = 0, failed = 0;
  for (const JobRec& j : o.jobs) {
    refused += j.refused;
    failed += !j.refused && !j.completed;
  }
  const auto lag = gen_lag_ms(o);
  util::Json backlog = util::Json::array();
  for (int b : o.backlog_samples) backlog.push_back(b);
  r.details["jobs"] = static_cast<double>(o.jobs.size());
  r.details["refused"] = refused;
  r.details["failed"] = failed;
  r.details["gen_lag_p90_ms"] = quantile(lag, 0.9);
  r.details["gen_lag_max_ms"] = quantile(lag, 1.0);
  r.details["backlog_at_quarters"] = backlog;
  r.details["backlog_at_window_end"] = o.backlog_at_window_end;
  r.details["drain_s_after_window"] =
      (o.last_terminal_us - o.window_end_us) * 1e-6;
}

}  // namespace

void probe_service(const Args& args, double window_s, SpanLog& log,
                   Result& r) {
  r.provenance["service_probe"] = util::Json::object();
  util::Json& prov = r.provenance["service_probe"];
  prov["mesh"] = "24x16x8";
  prov["M"] = 2;
  prov["rate_jobs_per_s"] = kArrivalRate;
  prov["window_s"] = window_s;
  prov["slots"] = kSlots;
  prov["rank_budget"] = kRankBudget;

  const std::string dir = args.out_dir + "/ensemble";
  std::filesystem::create_directories(dir);
  const auto arrivals = make_arrivals(args.seed, kArrivalRate, window_s);
  prov["arrivals"] = static_cast<double>(arrivals.size());
  const auto refs = solo_references(arrivals, dir);

  const OpenLoop loop = run_open_loop(arrivals, refs, window_s, dir, log, r);
  count_jobs(r, loop);
  set_details(r, loop);

  std::vector<double> wait, run_s, restore_ms, submit_us;
  int refused = 0;
  for (const JobRec& j : loop.jobs) {
    submit_us.push_back(j.submit_cost_us);
    refused += j.refused;
    if (!j.completed) continue;
    wait.push_back(j.metrics.queue_wait_seconds);
    run_s.push_back(j.metrics.run_seconds);
    const int resumes = j.metrics.ram_restores + j.metrics.disk_restores;
    if (resumes > 0)
      restore_ms.push_back(1e3 * j.metrics.restore_seconds / resumes);
  }
  r.set("service.queue_wait_p50_s", quantile(wait, 0.5), "s");
  r.set("service.queue_wait_p90_s", quantile(wait, 0.9), "s");
  r.set("service.run_s_p50", quantile(run_s, 0.5), "s");
  r.set("service.utilization", loop.utilization, "ratio");
  r.set("service.preemptions", static_cast<double>(loop.preemptions),
        "count");
  r.set("service.refused", refused, "count");
  r.set("service.submit_us_p90", quantile(submit_us, 0.9), "us");
  r.set("service.backlog_end", loop.backlog_at_window_end, "count");
  r.set("ckpt.service_restore_ms_p50", quantile(restore_ms, 0.5), "ms");
  r.set("bench.gen_lag_p90_ms", quantile(gen_lag_ms(loop), 0.9), "ms");
  r.details["service_turnaround_p50_s"] = quantile(loop.turnaround_s, 0.5);
  r.details["service_turnaround_p90_s"] = quantile(loop.turnaround_s, 0.9);
}

Result run_ensemble_capacity(const Args& args) {
  Result r;
  const std::string dir = args.out_dir + "/ensemble";
  std::filesystem::create_directories(dir);
  // Closed loop: blocking submits keep the queue full for args.seconds,
  // then the pool drains.  Capacity = completed jobs / (drain end - start).
  const auto mix = make_arrivals(args.seed, 100.0, 1.0);
  service::EnsembleService svc(pool_options(dir));
  std::vector<int> ids;
  const double t0 = now_us();
  for (std::size_t i = 0; now_us() - t0 < args.seconds * 1e6; ++i) {
    const Arrival& a = mix[i % mix.size()];
    ids.push_back(svc.submit(make_spec(a.cls, a.variant), true));
  }
  svc.drain();
  const double elapsed = (now_us() - t0) * 1e-6;
  int completed = 0;
  for (int id : ids)
    completed += svc.state(id) == service::JobState::kCompleted;
  r.attempted = static_cast<std::int64_t>(ids.size());
  r.failed = r.attempted - completed;
  r.set("capacity_jobs_per_s", completed / elapsed, "1/s");
  return r;
}

}  // namespace perfbench
