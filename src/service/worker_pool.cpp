#include "service/worker_pool.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "service/runner.hpp"
#include "util/checkpoint.hpp"
#include "util/config.hpp"
#include "util/proc_grid.hpp"

namespace ca::service {
namespace {

using Clock = std::chrono::steady_clock;

/// A `*.ckpt.tmp` file younger than this may be a sibling pool's atomic
/// checkpoint write in flight; only older ones are swept at startup.
constexpr std::chrono::seconds kStaleTmpAge{60};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

void add_summary(comm::FaultSummary& acc, const comm::FaultSummary& s) {
  acc.injected_delay += s.injected_delay;
  acc.injected_duplicate += s.injected_duplicate;
  acc.injected_drop += s.injected_drop;
  acc.injected_corrupt += s.injected_corrupt;
  acc.injected_stall += s.injected_stall;
  acc.injected_kill += s.injected_kill;
  acc.injected_hang += s.injected_hang;
  acc.injected_state_corrupt += s.injected_state_corrupt;
  acc.detected_checksum += s.detected_checksum;
  acc.detected_timeout += s.detected_timeout;
  acc.detected_peer_dead += s.detected_peer_dead;
  acc.detected_numeric += s.detected_numeric;
  acc.recovered_delay += s.recovered_delay;
  acc.recovered_duplicate += s.recovered_duplicate;
  acc.recovered_drop += s.recovered_drop;
}

enum class ReplicaAction { kKeep, kInvalidateDepositor, kPurge };
enum class FlightDump { kNever, kEveryIncident, kOnExhaustion };

/// One row per ResumeCause: everything that differs between a yield, a
/// rank death, a numeric blowup and a fault.  WorkerPool::resume reads
/// nothing else.
struct ResumePolicy {
  const char* cause;  ///< names the cause in instants and metric labels
  int JobMetrics::*incidents;  ///< the job's count the budget reads
  /// Incidents a job survives; the next one fails it (-1 = unbounded).
  int (*budget)(const PoolOptions&, const JobSpec&);
  bool exponential_backoff;  ///< retry_backoff_seconds * 2^(incidents-1)
  /// The dispatch does not count in metrics.attempts: the pool's rank
  /// failed, not the job.
  bool refund_attempt;
  /// The dead rank's RAM died with it (a hung rank's cannot be trusted),
  /// so its deposits go; a blown-up trajectory may sit in every replica,
  /// so a numeric rollback purges the job's set and restores from the
  /// sentinel-verified disk chain.
  ReplicaAction replicas;
  bool quarantine;  ///< strike the pool rank that died
  FlightDump dump;
  JobState requeue_as;
  const char* counter;  ///< registry counter of the cause's incidents
};

/// Indexed by ResumeCause.
constexpr ResumePolicy kResumePolicy[] = {
    {"yield", &JobMetrics::preemptions,
     [](const PoolOptions&, const JobSpec&) { return -1; }, false, false,
     ReplicaAction::kKeep, false, FlightDump::kNever, JobState::kPreempted,
     "service.preemptions"},
    // Every recovery strikes a rank and the breaker bounds strikes per
    // rank, so more recoveries than this mean the faults follow the job.
    {"rank_death", &JobMetrics::rank_recoveries,
     [](const PoolOptions& o, const JobSpec&) {
       return o.rank_budget * std::max(1, o.max_rank_strikes) + 1;
     },
     false, true, ReplicaAction::kInvalidateDepositor, true,
     FlightDump::kNever, JobState::kBackoff, "service.rank_recoveries"},
    {"numeric", &JobMetrics::numeric_rollbacks,
     [](const PoolOptions& o, const JobSpec&) { return o.numeric_retry; },
     false, false, ReplicaAction::kPurge, false, FlightDump::kEveryIncident,
     JobState::kBackoff, "service.numeric_rollbacks"},
    {"fault", &JobMetrics::fault_failures,
     [](const PoolOptions&, const JobSpec& s) { return s.max_attempts - 1; },
     true, false, ReplicaAction::kKeep, false, FlightDump::kOnExhaustion,
     JobState::kBackoff, "service.retries"},
};
static_assert(std::size(kResumePolicy) ==
              static_cast<std::size_t>(ResumeCause::kFault) + 1);

/// Why an attempt stopped short of spec.steps; nullopt = it completed.
std::optional<ResumeCause> cause_of(const AttemptResult& out) {
  if (out.dead_rank >= 0) return ResumeCause::kRankDeath;
  if (out.numeric) return ResumeCause::kNumeric;
  if (!out.error.empty()) return ResumeCause::kFault;
  if (out.yielded) return ResumeCause::kYield;
  return std::nullopt;
}

}  // namespace

PoolOptions PoolOptions::from_config(const util::Config& cfg) {
  PoolOptions o;
  o.slots = cfg.get_int("service.slots", o.slots);
  o.rank_budget = cfg.get_int("service.rank_budget", o.rank_budget);
  o.queue_capacity = static_cast<std::size_t>(
      cfg.get_long("service.queue_capacity",
                   static_cast<long long>(o.queue_capacity)));
  o.checkpoint_dir =
      cfg.get_string("service.checkpoint_dir", o.checkpoint_dir);
  o.max_rank_strikes =
      cfg.get_int("service.max_rank_strikes", o.max_rank_strikes);
  o.quarantine_seconds =
      cfg.get_double("service.quarantine_seconds", o.quarantine_seconds);
  o.aging_rate = cfg.get_double("service.aging_rate", o.aging_rate);
  o.replicate = cfg.get_bool("service.replicate", o.replicate);
  o.elastic = cfg.get_bool("service.elastic", o.elastic);
  o.delta_chain = cfg.get_int("service.delta_chain", o.delta_chain);
  o.delta_block_bytes = static_cast<std::size_t>(
      cfg.get_long("service.delta_block_bytes",
                   static_cast<long long>(o.delta_block_bytes)));
  o.health = core::HealthOptions::from_config(cfg);
  o.numeric_retry = cfg.get_int("service.numeric_retry", o.numeric_retry);
  o.obs = obs::TraceOptions::from_config(cfg);
  return o;
}

WorkerPool::WorkerPool(const PoolOptions& options)
    : options_(options),
      scheduler_(options.queue_capacity),
      ranks_(static_cast<std::size_t>(std::max(0, options.rank_budget))),
      busy_mark_(Clock::now()) {
  scheduler_.set_aging_rate(options_.aging_rate);
  // Environment-sensitive reliability defaults: CI legs flip replication
  // and delta chaining on for pools constructed DIRECTLY from PoolOptions
  // (most tests), not just from_config ones.  An empty Config resolves
  // only the CA_AGCM_* environment; absent vars keep the passed values.
  {
    const util::Config env;
    options_.replicate = env.get_bool("service.replicate", options_.replicate);
    options_.elastic = env.get_bool("service.elastic", options_.elastic);
    options_.delta_chain =
        env.get_int("service.delta_chain", options_.delta_chain);
    // The sentinel knobs too (CA_AGCM_HEALTH_*): the CI chaos legs flip
    // cadence/bounds for pools built directly from PoolOptions.
    options_.health = core::HealthOptions::from_config(env, options_.health);
    options_.numeric_retry =
        env.get_int("service.numeric_retry", options_.numeric_retry);
  }
  // Same env courtesy for the obs knobs (CA_AGCM_OBS_*): CI flips tracing
  // on for pools constructed directly from PoolOptions, not just
  // from_config ones.  tid -1 marks the scheduler timeline in merged
  // traces and routes flight dumps to obs_dump_service.json.
  options_.obs = options_.obs.env_resolved();
  tracer_.configure(options_.obs, /*tid=*/-1, nullptr, options_.trace_sink);
  if (options_.trace_sink != nullptr)
    options_.trace_sink->set_thread_name(0, -1, "service scheduler");
  // Checkpoint paths are built under this directory; a missing one would
  // make every preemptible job burn its whole attempt budget on fopen
  // failures, so materialize it (or fail loudly) before any slot starts.
  if (options_.checkpoint_dir.empty()) options_.checkpoint_dir = ".";
  std::filesystem::create_directories(options_.checkpoint_dir);
  // Sweep stale atomic-write leftovers: a crash between a checkpoint's
  // tmp-write and its rename leaves a `*.ckpt.tmp` behind.  They are never
  // read (readers only open the renamed path) but accumulate forever.
  // Only files past kStaleTmpAge are removed: another pool sharing this
  // directory may have an atomic write in flight right now, and deleting
  // its tmp file would fail that checkpoint and burn a job attempt.  An
  // in-flight tmp lives milliseconds, so a minute-old one is a dead
  // writer's.
  std::error_code ec;
  const auto oldest_live =
      std::filesystem::file_time_type::clock::now() - kStaleTmpAge;
  for (const auto& e :
       std::filesystem::directory_iterator(options_.checkpoint_dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    if (name.ends_with(".ckpt.tmp")) {
      const auto mtime = std::filesystem::last_write_time(e.path(), ec);
      if (!ec && mtime < oldest_live) std::filesystem::remove(e.path(), ec);
    } else if (name.ends_with(".reshard")) {
      // A reshard marker is the commit record of a reshard that crashed
      // after committing but before publishing; roll it forward so the
      // checkpoint set is whole before any job resumes from it.  Same age
      // gate as the tmp sweep: a fresh marker may belong to a sibling
      // pool publishing right now.
      const auto mtime = std::filesystem::last_write_time(e.path(), ec);
      if (ec || mtime >= oldest_live) continue;
      const std::string full = e.path().string();
      try {
        util::recover_resharded_checkpoints(
            full.substr(0, full.size() - 8));
      } catch (const std::exception&) {
        // Leave the marker for the owning job's reshard retry to repair.
      }
    }
  }
  slots_.reserve(static_cast<std::size_t>(options_.slots));
  for (int s = 0; s < options_.slots; ++s)
    slots_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() { shutdown(); }

bool WorkerPool::submit(const std::shared_ptr<Job>& job, bool block) {
  std::unique_lock<std::mutex> lk(mu_);
  if (block)
    space_cv_.wait(lk, [&] { return stopping_ || !scheduler_.full(); });
  if (stopping_ || scheduler_.full()) return false;
  const auto now = Clock::now();
  job->state = JobState::kQueued;
  job->submitted_at = now;
  job->last_queued_at = now;
  job->ready_at = now;
  if (job->checkpoint_prefix.empty())
    job->checkpoint_prefix = options_.checkpoint_dir + "/ca_service_job" +
                             std::to_string(job->id);
  ++in_flight_;
  metrics_.counter("service.jobs_submitted").add(1);
  tracer_.instant("admit", "service",
                  "job " + std::to_string(job->id) + " '" +
                      job->spec.name + "' priority " +
                      std::to_string(job->spec.priority));
  if (push_job_checked(job)) {
    // A high-priority submission that does not fit the free budget starts
    // evicting immediately — an idle worker may never see it otherwise.
    if (const Job* best = scheduler_.peek_ready(now))
      request_preemption(best->spec.priority, best->ranks());
    work_cv_.notify_all();
  }
  update_gauges();
  return true;
}

void WorkerPool::wait(const Job& job) {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return job.state == JobState::kCompleted ||
           job.state == JobState::kFailed;
  });
}

JobResult WorkerPool::snapshot(Job& job, bool take_state) {
  std::lock_guard<std::mutex> lk(mu_);
  JobResult r;
  r.id = job.id;
  r.name = job.spec.name;
  r.state = job.state;
  r.steps_done = job.steps_done;
  r.active_dims = job.active_dims;
  r.metrics = job.metrics;
  r.faults = job.faults;
  r.error = job.error;
  if (take_state && job.state == JobState::kCompleted) {
    if (job.final_state_taken) {
      // A previous snapshot already moved the state out; returning the
      // (now empty) member again would let a caller silently compare
      // against a default-constructed State.  Signal it explicitly.
      r.state_already_taken = true;
    } else {
      r.final_state = std::move(job.final_state);
      job.final_state_taken = true;
    }
  }
  return r;
}

JobState WorkerPool::state(const Job& job) const {
  std::lock_guard<std::mutex> lk(mu_);
  return job.state;
}

void WorkerPool::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return in_flight_ == 0; });
}

void WorkerPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  // The old `stopping_ && slots_.empty()` early-return raced: a second
  // caller arriving after stopping_ was set but before the first caller
  // cleared slots_ would fall through and join the same std::thread
  // objects (UB).  call_once joins exactly once and makes every other
  // caller block until the joining one finishes, so shutdown() still
  // means "slots are stopped" for all callers.
  std::call_once(shutdown_once_, [this] {
    for (auto& t : slots_)
      if (t.joinable()) t.join();
    slots_.clear();
    // Slots are gone: nothing records into the scheduler ring any more,
    // so the remainder can spill to the collector without the pool lock.
    tracer_.flush();
  });
}

int WorkerPool::max_concurrent_jobs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_concurrent_;
}

int WorkerPool::max_ranks_in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_ranks_in_flight_;
}

double WorkerPool::rank_seconds_busy() const {
  std::lock_guard<std::mutex> lk(mu_);
  int busy = 0;
  for (const auto& rh : ranks_)
    if (rh.busy) ++busy;
  return rank_seconds_busy_ + busy * seconds_between(busy_mark_, Clock::now());
}

std::vector<RankHealthInfo> WorkerPool::rank_health() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<RankHealthInfo> out;
  out.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankHealthInfo info;
    info.id = static_cast<int>(r);
    switch (ranks_[r].status) {
      case RankStatus::kHealthy:
        info.status = "healthy";
        break;
      case RankStatus::kQuarantined:
        info.status = "quarantined";
        break;
      case RankStatus::kRetired:
        info.status = "retired";
        break;
    }
    info.strikes = ranks_[r].strikes;
    info.quarantines = ranks_[r].quarantines;
    out.push_back(std::move(info));
  }
  return out;
}

void WorkerPool::update_gauges() {
  metrics_.gauge("service.queue_depth")
      .set(static_cast<double>(scheduler_.size()));
  metrics_.gauge("service.free_ranks")
      .set(static_cast<double>(free_rank_count()));
}

double WorkerPool::degraded_rank_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  int impaired = 0;
  for (const auto& rh : ranks_)
    if (rh.status != RankStatus::kHealthy) ++impaired;
  return degraded_rank_seconds_ +
         impaired * seconds_between(busy_mark_, Clock::now());
}

void WorkerPool::accrue_busy_time() {
  const auto now = Clock::now();
  int busy = 0, impaired = 0;
  for (const auto& rh : ranks_) {
    if (rh.busy) ++busy;
    if (rh.status != RankStatus::kHealthy) ++impaired;
  }
  const double dt = seconds_between(busy_mark_, now);
  rank_seconds_busy_ += busy * dt;
  degraded_rank_seconds_ += impaired * dt;
  busy_mark_ = now;
}

int WorkerPool::free_rank_count() const {
  int n = 0;
  for (const auto& rh : ranks_)
    if (rh.status == RankStatus::kHealthy && !rh.busy) ++n;
  return n;
}

int WorkerPool::usable_rank_count() const {
  int n = 0;
  for (const auto& rh : ranks_)
    if (rh.status != RankStatus::kRetired) ++n;
  return n;
}

Clock::time_point WorkerPool::revive_ranks(Clock::time_point now) {
  // Charge the degraded integral up to `now` BEFORE any status flips so
  // the quarantine window is accounted at full weight.
  accrue_busy_time();
  auto earliest = Clock::time_point::max();
  for (auto& rh : ranks_) {
    if (rh.status != RankStatus::kQuarantined) continue;
    if (rh.until <= now)
      rh.status = RankStatus::kHealthy;
    else
      earliest = std::min(earliest, rh.until);
  }
  update_gauges();
  return earliest;
}

void WorkerPool::quarantine_rank(int pool_rank, Clock::time_point now) {
  if (pool_rank < 0 || pool_rank >= static_cast<int>(ranks_.size())) return;
  auto& rh = ranks_[pool_rank];
  if (rh.status == RankStatus::kRetired) return;
  ++rh.strikes;
  ++rh.quarantines;
  metrics_.counter("service.quarantines").add(1);
  if (rh.strikes >= options_.max_rank_strikes) {
    // Circuit breaker: this rank keeps killing attempts — retire it for
    // good and deal with the permanently smaller budget right away: the
    // queued jobs that no longer fit re-enter through the checked push
    // (reshaped or failed).  Their queue residency goes on, and with it
    // their overtake mark.
    rh.status = RankStatus::kRetired;
    metrics_.counter("service.ranks_retired").add(1);
    tracer_.instant("retire", "service",
                    "pool rank " + std::to_string(pool_rank) + " after " +
                        std::to_string(rh.strikes) + " strikes");
    for (auto& j : scheduler_.remove_over_demand(usable_rank_count())) {
      const std::uint64_t mark = j->dispatch_mark;
      if (push_job_checked(j)) j->dispatch_mark = mark;
    }
  } else {
    rh.status = RankStatus::kQuarantined;
    rh.until = now + to_duration(std::max(0.0, options_.quarantine_seconds));
    tracer_.instant("quarantine", "service",
                    "pool rank " + std::to_string(pool_rank) + " strike " +
                        std::to_string(rh.strikes));
  }
}

std::string WorkerPool::refit_job(Job& job, int target) {
  if (target <= 0)
    return "rank pool permanently degraded: no usable ranks remain";
  const JobSpec& spec = job.spec;
  // Never exceed the submitted shape: re-growth stops at spec.dims.
  target = std::min(target, spec.ranks());
  // The checkpoint holds plain field state for the serial/original cores
  // and self-describing reshardable carry blocks for the CA core, so ANY
  // job can restart on the largest valid process grid that still fits.
  std::array<int, 3> d{1, 1, 1};
  bool found = spec.core == CoreKind::kSerial;
  for (int p = target; p >= 1 && !found; --p) {
    std::array<int, 3> cand;
    if (p == spec.ranks()) {
      // The submitted shape itself is the preferred fit at full demand
      // (a generated grid of the same rank count may factorize the mesh
      // differently, and swapping shapes for no rank gain would only
      // churn reshards).
      cand = spec.dims;
    } else {
      // pz-preserving preference: keep the submitted vertical split when
      // p divides by it.  The CA core's exact mode is bitwise in the
      // z-line reductions only while pz is unchanged, so an elastic
      // squeeze that narrows py alone stays bit-identical by
      // construction — yz_grid's factorization would only preserve pz by
      // accident.  The probe below still validates the shape, and the
      // generated grid remains the fallback when pz does not divide p.
      const int pz = spec.dims[2];
      if (spec.core == CoreKind::kCA && pz > 0 && p % pz == 0) {
        JobSpec pzprobe = spec;
        pzprobe.dims = {1, p / pz, pz};
        if (validate(pzprobe, options_.rank_budget).empty()) {
          d = pzprobe.dims;
          found = true;
          break;
        }
      }
      try {
        const auto g = spec.core != CoreKind::kCA &&
                               spec.scheme == core::DecompScheme::kXY
                           ? util::xy_grid(p)
                           : util::yz_grid(p, spec.config.nz);
        cand = {g[0], g[1], g[2]};
      } catch (const std::exception&) {
        continue;
      }
    }
    JobSpec probe = spec;
    probe.dims = cand;
    // Validate against the ORIGINAL budget: node_faults may legitimately
    // name a now-retired pool rank id, and p <= target already holds.
    if (!validate(probe, options_.rank_budget).empty()) continue;
    d = cand;
    found = true;
  }
  if (!found)
    return "rank pool permanently degraded: no valid decomposition of the "
           "mesh fits the " +
           std::to_string(target) + " usable rank(s)";
  if (d == job.active_dims) return {};
  // The RAM replicas hold the OLD decomposition's block shapes; after the
  // refit they could only mis-parse, so drop them at the moment the shape
  // changes (the re-written disk set is the sole restore source).
  replicas_.erase_prefix(job.checkpoint_prefix);
  // Only the job's own checkpoint set needs resharding; a job that never
  // checkpointed restarts from step 0 under the new shape directly.
  if (job.checkpointed) {
    if (job.reshard_from == std::array<int, 3>{0, 0, 0})
      job.reshard_from = job.active_dims;
    else if (job.reshard_from == d)
      // Refit back to the shape still on disk: nothing to reshard.
      job.reshard_from = {0, 0, 0};
    // Otherwise keep the ORIGINAL on-disk shape: an earlier refit was
    // scheduled but its reshard has not run yet (chain-safe).
  }
  job.active_dims = d;
  return {};
}

void WorkerPool::finish_job(Job& job, JobState state) {
  job.state = state;
  metrics_
      .counter(state == JobState::kCompleted ? "service.jobs_completed"
                                             : "service.jobs_failed")
      .add(1);
  // Terminal jobs never resume; release their RAM images.
  if (!job.checkpoint_prefix.empty())
    replicas_.erase_prefix(job.checkpoint_prefix);
  if (job.metrics.run_seconds > 0.0)
    job.metrics.steps_per_second = job.steps_done / job.metrics.run_seconds;
  if (job.spec.deadline_seconds > 0.0)
    job.metrics.deadline_missed =
        seconds_between(job.submitted_at, Clock::now()) >
        job.spec.deadline_seconds;
  --in_flight_;
  done_cv_.notify_all();
}

bool WorkerPool::push_job_checked(const std::shared_ptr<Job>& job) {
  // Every queue entry passes here: a fresh submit (validated against the
  // full rank_budget), a resume, and the queued jobs a retirement evicts
  // (quarantine_rank).  Demand can exceed the usable count only once a rank
  // has retired (quarantined ranks still count as usable: they return).
  if (job->ranks() > usable_rank_count()) {
    const std::string err = refit_job(*job, usable_rank_count());
    if (!err.empty()) {
      job->error = err;
      finish_job(*job, JobState::kFailed);
      return false;
    }
  }
  // Queue residency starts here: overtakes accrue from this mark when the
  // job is eventually popped.
  job->dispatch_mark = dispatches_;
  scheduler_.push(job);
  return true;
}

void WorkerPool::request_preemption(int priority, int needed) {
  // Ranks already coming free from in-progress yields count first.
  for (const auto& j : running_)
    if (j->yield_requested.load(std::memory_order_relaxed))
      needed -= j->ranks();
  needed -= free_rank_count();
  if (needed <= 0) return;

  std::vector<Job*> victims;
  for (const auto& j : running_)
    if (j->spec.checkpoint_every > 0 && j->spec.priority < priority &&
        !j->yield_requested.load(std::memory_order_relaxed))
      victims.push_back(j.get());
  // Evict the least important work first.
  std::sort(victims.begin(), victims.end(), [](const Job* a, const Job* b) {
    if (a->spec.priority != b->spec.priority)
      return a->spec.priority < b->spec.priority;
    return a->sequence > b->sequence;
  });
  for (Job* v : victims) {
    if (needed <= 0) break;
    v->yield_requested.store(true, std::memory_order_relaxed);
    needed -= v->ranks();
    metrics_.counter("service.preempt_requests").add(1);
    tracer_.instant("preempt_request", "service",
                    "job " + std::to_string(v->id) + " asked to yield " +
                        std::to_string(v->ranks()) + " rank(s) for priority " +
                        std::to_string(priority));
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const auto now = Clock::now();
    // Shutdown cancels backoff gates: the drain still runs every pending
    // retry, just immediately — otherwise an exponential backoff (up to
    // 2^20 x base) could hold shutdown hostage for hours.
    const auto gate = stopping_ ? Scheduler::TimePoint::max() : now;
    const auto next_revive = revive_ranks(now);
    if (auto job = scheduler_.pop_ready(gate, free_rank_count())) {
      // Elastic re-growth: a job squeezed (or degraded-reshaped) below
      // its submitted decomposition widens back toward spec.dims when the
      // idle ranks allow it.  pop_ready admitted the job at its CURRENT
      // demand, and free_rank_count() still counts the ranks this job is
      // about to take, so growing up to that bound keeps the assignment
      // below feasible.
      if (options_.elastic && job->active_dims != job->spec.dims) {
        const int room = std::min(free_rank_count(), job->spec.ranks());
        if (room > job->ranks()) {
          const auto narrow = job->active_dims;
          if (refit_job(*job, room).empty() && job->active_dims != narrow) {
            metrics_.counter("service.elastic_grows").add(1);
            tracer_.instant("elastic_grow", "service",
                            "job " + std::to_string(job->id) + " re-grown " +
                                std::to_string(narrow[0] * narrow[1] *
                                               narrow[2]) +
                                " -> " + std::to_string(job->ranks()) +
                                " rank(s)");
          }
        }
      }
      accrue_busy_time();
      // Back the attempt with concrete pool ranks (lowest ids first, so
      // tests can deterministically target a node by id); the runner maps
      // node-resident faults through this assignment.
      job->assigned_ranks.clear();
      const int need = job->ranks();
      for (int r = 0;
           r < static_cast<int>(ranks_.size()) &&
           static_cast<int>(job->assigned_ranks.size()) < need;
           ++r) {
        if (ranks_[r].status != RankStatus::kHealthy || ranks_[r].busy)
          continue;
        ranks_[r].busy = true;
        job->assigned_ranks.push_back(r);
      }
      int busy = 0;
      for (const auto& rh : ranks_)
        if (rh.busy) ++busy;
      max_ranks_in_flight_ = std::max(max_ranks_in_flight_, busy);
      running_.push_back(job);
      max_concurrent_ =
          std::max(max_concurrent_, static_cast<int>(running_.size()));
      job->state = JobState::kRunning;
      const double waited = seconds_between(job->last_queued_at, now);
      job->metrics.queue_wait_seconds += waited;
      // Dispatch-order fairness accounting: how many OTHER dispatches
      // happened while this job sat in the queue.  Wall-clock-free, so
      // the soak tests can bound aging behavior on any machine speed.
      job->metrics.dispatches_overtaken += dispatches_ - job->dispatch_mark;
      ++dispatches_;
      ++job->metrics.attempts;
      metrics_.counter("service.dispatches").add(1);
      metrics_
          .histogram("service.queue_wait_seconds",
                     {0.001, 0.01, 0.1, 1.0, 10.0})
          .observe(waited);
      tracer_.instant("dispatch", "service",
                      "job " + std::to_string(job->id) + " attempt " +
                          std::to_string(job->metrics.attempts) + " on " +
                          std::to_string(job->ranks()) + " rank(s)");
      space_cv_.notify_all();
      update_gauges();
      lk.unlock();
      execute(job);
      lk.lock();
      continue;
    }
    if (stopping_ && in_flight_ == 0) return;
    if (Job* best = scheduler_.peek_ready(gate))
      if (best->ranks() > free_rank_count()) {
        // Elastic squeeze: a preemptible job that cannot fit the idle
        // ranks runs narrow on them NOW instead of waiting for
        // preemption to free its full shape — utilization over width.
        // Only checkpointing jobs are squeezed (the refit rides on the
        // checkpoint reshard); when no smaller valid shape fits the free
        // ranks, fall through to preemption as before.
        if (options_.elastic && free_rank_count() > 0 &&
            best->spec.checkpoint_every > 0) {
          const auto wide = best->active_dims;
          if (refit_job(*best, free_rank_count()).empty() &&
              best->active_dims != wide) {
            metrics_.counter("service.elastic_shrinks").add(1);
            tracer_.instant("elastic_shrink", "service",
                            "job " + std::to_string(best->id) +
                                " squeezed " +
                                std::to_string(wide[0] * wide[1] * wide[2]) +
                                " -> " + std::to_string(best->ranks()) +
                                " rank(s) for idle budget");
            continue;  // pop it at its narrow shape right away
          }
        }
        request_preemption(best->spec.priority, best->ranks());
      }
    const auto next =
        std::min(scheduler_.next_ready_after(gate), next_revive);
    if (next == Scheduler::TimePoint::max())
      work_cv_.wait(lk);
    else
      work_cv_.wait_until(lk, next);
  }
}

void WorkerPool::execute(const std::shared_ptr<Job>& job) {
  Job* raw = job.get();
  AttemptResult out;
  // Resharding touches the filesystem; it runs outside the pool lock like
  // the attempt itself.  refit_job already dropped the RAM replicas, which
  // hold the old decomposition's block shapes, when it changed the shape.
  if (job->reshard_from != std::array<int, 3>{0, 0, 0} &&
      job->reshard_from != job->active_dims) {
    try {
      const mesh::LatLonMesh mesh(job->spec.config.nx, job->spec.config.ny,
                                  job->spec.config.nz);
      util::reshard_checkpoints(job->checkpoint_prefix, mesh,
                                job->reshard_from, job->active_dims);
      job->reshard_from = {0, 0, 0};
    } catch (const std::exception& e) {
      out.error = std::string("checkpoint reshard failed: ") + e.what();
    }
  }
  if (out.error.empty()) {
    AttemptOptions o;
    o.attempt = job->metrics.attempts;
    // The one resume rule: resume iff this job's own attempts left a
    // whole checkpoint set.  The checkpoint headers name the step; the
    // yield mark does not bound it, because a torn set restarts the job
    // from step 0 and its next set may lie below an earlier mark.
    o.start_step = job->checkpointed ? 1 : 0;
    o.checkpoint_prefix = job->checkpoint_prefix;
    o.should_yield = [raw] {
      return raw->yield_requested.load(std::memory_order_relaxed);
    };
    o.dims = job->active_dims;
    o.pool_ranks = job->assigned_ranks;
    if (options_.replicate) o.replicas = &replicas_;
    o.delta_chain = options_.delta_chain;
    o.delta_block_bytes = options_.delta_block_bytes;
    o.health = options_.health;
    o.obs = options_.obs;
    o.trace_sink = options_.trace_sink;
    // One trace process per job: its ranks' timelines group under the job
    // id in Perfetto, separate from other jobs sharing the pool.
    o.trace_pid = job->id;
    if (options_.trace_sink != nullptr)
      options_.trace_sink->set_process_name(
          job->id, "job " + std::to_string(job->id) + " '" +
                       job->spec.name + "'");
    out = run_attempt(job->spec, o);
  }

  std::lock_guard<std::mutex> lk(mu_);
  accrue_busy_time();
  for (int r : job->assigned_ranks)
    if (r >= 0 && r < static_cast<int>(ranks_.size()))
      ranks_[r].busy = false;
  running_.erase(std::find(running_.begin(), running_.end(), job));

  job->metrics.run_seconds += out.run_seconds;
  job->metrics.messages += out.comm.p2p_messages;
  job->metrics.bytes += out.comm.p2p_bytes + out.comm.collective_bytes;
  job->metrics.collective_calls += out.comm.collective_calls;
  if (out.restored_from == RestoreSource::kRam) ++job->metrics.ram_restores;
  if (out.restored_from == RestoreSource::kDisk)
    ++job->metrics.disk_restores;
  job->metrics.restore_seconds += out.restore_seconds;
  add_summary(job->faults, out.faults);
  // A torn set replaces whatever whole set the job had: restart from 0,
  // and the reported progress with it.
  if (out.checkpoints != CheckpointSet::kUntouched)
    job->checkpointed = out.checkpoints == CheckpointSet::kWhole;
  job->steps_done = job->checkpointed ? std::max(job->steps_done, out.end_step)
                                      : out.end_step;

  if (const auto cause = cause_of(out)) {
    resume(job, *cause, out);
  } else {
    job->final_state = std::move(out.global);
    job->error.clear();
    finish_job(*job, JobState::kCompleted);
  }
  update_gauges();
  work_cv_.notify_all();
}

void WorkerPool::resume(const std::shared_ptr<Job>& job, ResumeCause cause,
                        const AttemptResult& out) {
  const ResumePolicy& p = kResumePolicy[static_cast<std::size_t>(cause)];
  const auto now = Clock::now();
  if (!out.error.empty()) job->error = out.error;  // latest failure kept
  if (p.quarantine) {
    const auto& assigned = job->assigned_ranks;
    quarantine_rank(out.dead_rank < static_cast<int>(assigned.size())
                        ? assigned[static_cast<std::size_t>(out.dead_rank)]
                        : -1,
                    now);
  }
  if (p.replicas == ReplicaAction::kInvalidateDepositor)
    replicas_.invalidate_depositor(job->checkpoint_prefix, out.dead_rank);
  else if (p.replicas == ReplicaAction::kPurge)
    replicas_.erase_prefix(job->checkpoint_prefix);
  // Every incident counts, in the job and in the registry alike; the
  // one that exhausts the budget also counts in budget_exhausted{cause}.
  const int incidents = ++(job->metrics.*p.incidents);
  metrics_.counter(p.counter).add(1);
  if (p.refund_attempt) --job->metrics.attempts;
  const int budget = p.budget(options_, job->spec);
  const bool exhausted = budget >= 0 && incidents > budget;
  const std::string what = "job " + std::to_string(job->id) + " '" +
                           job->spec.name + "' cause=" + p.cause +
                           " incident " + std::to_string(incidents);
  if (p.dump == FlightDump::kEveryIncident ||
      (exhausted && p.dump == FlightDump::kOnExhaustion))
    tracer_.dump_flight(what + (exhausted ? " exhausted its budget: "
                                          : ": ") +
                        job->error);
  if (exhausted) {
    metrics_.counter("service.budget_exhausted", {{"cause", p.cause}}).add(1);
    tracer_.instant("budget_exhausted", "service", what + ": " + job->error);
    finish_job(*job, JobState::kFailed);
    return;
  }
  const double backoff =
      p.exponential_backoff
          ? std::ldexp(job->spec.retry_backoff_seconds,
                       std::min(incidents - 1, 20))
          : 0.0;
  tracer_.instant("resume", "service",
                  what + (job->checkpointed ? " from checkpoint"
                                            : " from step 0"));
  job->metrics.backoff_seconds += backoff;
  job->yield_requested.store(false, std::memory_order_relaxed);
  job->state = p.requeue_as;
  job->ready_at = now + to_duration(backoff);
  job->last_queued_at = now;
  push_job_checked(job);
}

}  // namespace ca::service
