// Worker pool of the ensemble service: N slot threads multiplex queued
// jobs over a shared rank budget.  Each slot that picks a job spins up a
// comm::Runtime rank group sized to the job's decomposition (via
// service::run_attempt), so the budget bounds the total logical ranks in
// flight, not the number of jobs.
//
// An attempt that does not complete re-enters the queue through ONE
// transition, WorkerPool::resume, driven by the per-cause policy table
// kResumePolicy in worker_pool.cpp: yield, rank_death, numeric and fault
// each have their own incident count, budget, backoff, attempt refund,
// replica action, quarantine and flight-dump rule, so no cause spends
// another's budget.  Whatever the cause, a re-dispatched job resumes iff
// its own attempts have left a whole checkpoint set (Job::checkpointed).
//
// Around that transition:
//   - preemption: when the best ready job does not fit the free budget,
//     the pool asks enough lower-priority preemptible running jobs to
//     yield at their next checkpoint boundary;
//   - rank health: a dead/hung rank's pool rank is quarantined for
//     quarantine_seconds, and a circuit breaker retires it after
//     max_rank_strikes quarantines; a job whose shape no longer fits the
//     surviving budget is re-factorized to a smaller process grid (its
//     checkpoint set is resharded, the CA core's carry included);
//   - elasticity (opt-in, PoolOptions::elastic): under queue pressure a
//     preemptible job that cannot fit the idle ranks is squeezed to a
//     smaller valid decomposition and runs narrow instead of waiting for
//     preemption to free its full shape; when it is next dispatched with
//     room to spare it re-grows toward its submitted dims.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/job.hpp"
#include "service/replica.hpp"
#include "service/scheduler.hpp"

namespace ca::util {
class Config;
}

namespace ca::service {

struct PoolOptions {
  int slots = 2;                    ///< worker slot threads
  int rank_budget = 4;              ///< total logical ranks in flight
  std::size_t queue_capacity = 16;  ///< backpressure bound on submissions
  /// Directory for the per-job checkpoint files preemption rides on.
  std::string checkpoint_dir = ".";
  /// Quarantines before a rank is retired for good (circuit breaker).
  int max_rank_strikes = 3;
  /// How long a struck rank sits out before rejoining the budget.
  double quarantine_seconds = 0.25;
  /// Scheduler aging rate [priority points per waiting second]; 0 = off.
  double aging_rate = 0.0;
  /// In-memory buddy replication of checkpoint images: every cadence
  /// each rank deposits its image into the pool's ReplicaStore (self +
  /// ring buddy), and resumes prefer the RAM set over the disk files.
  bool replicate = false;
  /// Voluntary rank elasticity (config key service.elastic, env
  /// CA_AGCM_SERVICE_ELASTIC).  On: a preemptible job whose demand does
  /// not fit the idle ranks is squeezed to the largest valid smaller
  /// decomposition and runs narrow instead of waiting for preemption,
  /// re-growing toward its submitted dims when room returns.  Off (the
  /// default): decompositions change only when the usable budget shrinks
  /// permanently (a rank retired).
  bool elastic = false;
  /// Checkpoint delta chaining: > 0 writes at most that many dirty-block
  /// delta files between full bases (0 = full file every cadence).
  int delta_chain = 0;
  /// Dirty-diff granularity for delta checkpoints [bytes].
  std::size_t delta_block_bytes = 4096;
  /// Numerical-health sentinel for every attempt's campaign — ON by
  /// default at the service layer (cadence 1): a production pool must
  /// never complete a blown-up trajectory or persist/replicate a
  /// poisoned state.  Knobs under health.* (env CA_AGCM_HEALTH_*);
  /// cadence 0 turns the sentinel off entirely.
  core::HealthOptions health{.cadence = 1};
  /// Separate retry budget for NUMERIC rollbacks (config key
  /// service.numeric_retry): how many times a job's sentinel trip may
  /// roll it back to its last healthy checkpoint before it fails.
  /// Distinct from JobSpec::max_attempts — comm faults and blowups have
  /// different causes and different bounded budgets.
  int numeric_retry = 2;
  /// Observability knobs forwarded to every attempt's rank group and to
  /// the pool's own scheduler tracer (tid -1 in merged traces).
  obs::TraceOptions obs{};
  /// Non-null receives every job's span stream (pid = job id) plus the
  /// scheduler timeline; must outlive the pool.
  obs::TraceCollector* trace_sink = nullptr;

  /// Reads service.slots / rank_budget / queue_capacity / checkpoint_dir /
  /// max_rank_strikes / quarantine_seconds / aging_rate / replicate /
  /// elastic / delta_chain / delta_block_bytes / numeric_retry plus the
  /// health.* and obs.* keys (each with the usual CA_AGCM_* environment
  /// override).
  static PoolOptions from_config(const util::Config& cfg);
};

/// Reportable health of one pool rank (see WorkerPool::rank_health).
struct RankHealthInfo {
  int id = 0;
  std::string status;  ///< "healthy" | "quarantined" | "retired"
  int strikes = 0;
  int quarantines = 0;
};

struct AttemptResult;

/// Why an attempt ended without completing; indexes the pool's resume
/// policy table.
enum class ResumeCause { kYield, kRankDeath, kNumeric, kFault };

class WorkerPool {
 public:
  explicit WorkerPool(const PoolOptions& options);
  ~WorkerPool();  // drains the queue, then stops the slots

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  const PoolOptions& options() const { return options_; }

  /// The pool's replica cache (thread-safe on its own mutex).  Tests use
  /// it to inspect/corrupt deposits; it is populated only when
  /// options().replicate is set.
  ReplicaStore& replicas() { return replicas_; }
  const ReplicaStore& replicas() const { return replicas_; }

  /// Service-level metrics registry (counters/histograms the report's v4
  /// `metrics` section snapshots).  Thread-safe on its own locks.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Enqueues a validated job.  Blocks while the queue is full
  /// (backpressure) when `block`; otherwise returns false immediately.
  /// Returns false after shutdown() as well.
  bool submit(const std::shared_ptr<Job>& job, bool block);

  /// Blocks until the job reaches kCompleted or kFailed.
  void wait(const Job& job);
  /// Locked snapshot of a job's reportable fields; `take_state` moves a
  /// completed job's final state into the result exactly once.  Later
  /// state-taking snapshots come back with `state_already_taken` set (and
  /// an empty final_state) so a caller comparing against the state fails
  /// loudly instead of matching a default-constructed State.
  JobResult snapshot(Job& job, bool take_state);
  JobState state(const Job& job) const;
  /// Blocks until every submitted job is terminal.
  void drain();
  /// Stops accepting submissions, drains what is queued, joins the slots.
  /// Backoff gates are cancelled: pending retries run immediately, so the
  /// drain is never held up by a long exponential backoff.
  void shutdown();

  // --- service-level counters (read from metrics(); stable once the
  // pool is drained) ---
  int max_concurrent_jobs() const;
  int max_ranks_in_flight() const;
  /// Incidents per cause, summed over jobs (each equals the sum of the
  /// jobs' JobMetrics count): yields, faults, rank deaths and numeric
  /// blowups, the budget-exhausting ones included; those also count
  /// under service.budget_exhausted{cause}.
  std::uint64_t preemptions() const { return count("service.preemptions"); }
  std::uint64_t retries() const { return count("service.retries"); }
  std::uint64_t jobs_recovered() const {
    return count("service.rank_recoveries");
  }
  std::uint64_t numeric_rollbacks() const {
    return count("service.numeric_rollbacks");
  }
  /// Elastic refits (options().elastic only): jobs squeezed below their
  /// submitted decomposition to run on idle ranks, and re-grown toward it
  /// when room returned.
  std::uint64_t elastic_shrinks() const {
    return count("service.elastic_shrinks");
  }
  std::uint64_t elastic_grows() const { return count("service.elastic_grows"); }
  /// Integral of ranks-in-use over time [rank-seconds]; utilization is
  /// this over (rank_budget * service wall time).
  double rank_seconds_busy() const;

  // --- rank health (the report's `health` section) ---
  std::vector<RankHealthInfo> rank_health() const;
  /// Quarantine events (a rank may contribute several).
  std::uint64_t quarantines() const { return count("service.quarantines"); }
  /// Ranks permanently retired by the circuit breaker.
  int ranks_retired() const {
    return static_cast<int>(count("service.ranks_retired"));
  }
  /// Integral of impaired (quarantined + retired) ranks over time
  /// [rank-seconds]: how much advertised capacity was lost to faults.
  double degraded_rank_seconds() const;

 private:
  enum class RankStatus { kHealthy, kQuarantined, kRetired };
  struct RankHealth {
    RankStatus status = RankStatus::kHealthy;
    int strikes = 0;
    int quarantines = 0;
    std::chrono::steady_clock::time_point until{};  ///< quarantine expiry
    bool busy = false;  ///< currently backing a running attempt
  };

  void worker_loop();
  /// Runs one attempt of `job` outside the lock and applies the outcome.
  void execute(const std::shared_ptr<Job>& job);
  /// Under lock: the one transition for an attempt that did not complete.
  /// Applies the cause's row of the policy table — counts the incident,
  /// quarantines / purges replicas / dumps the flight recorder as the row
  /// says — then either re-queues the job through push_job_checked or,
  /// past the row's budget, fails it through finish_job.
  void resume(const std::shared_ptr<Job>& job, ResumeCause cause,
              const AttemptResult& out);
  /// Current value of a registry counter (0 before its first add).
  std::uint64_t count(const char* name) const {
    return metrics_.counter(name).value();
  }
  /// Under lock: ask lower-priority preemptible running jobs to yield
  /// until `needed` ranks will come free for a job of `priority`.
  void request_preemption(int priority, int needed);
  /// Under lock: fold the elapsed busy/impaired time into the integrals.
  void accrue_busy_time();
  /// Under lock: ranks available for assignment (healthy and idle).
  int free_rank_count() const;
  /// Under lock: ranks not permanently retired (the ceiling any job's
  /// demand must fit under, quarantined ranks included — they return).
  int usable_rank_count() const;
  /// Under lock: return expired quarantines to the budget; returns the
  /// earliest pending expiry (TimePoint::max() when none).
  std::chrono::steady_clock::time_point revive_ranks(
      std::chrono::steady_clock::time_point now);
  /// Under lock: strike + quarantine (or retire) a pool rank after a
  /// dead-rank attempt; a retirement re-checks every queued job against
  /// the smaller usable budget.
  void quarantine_rank(int pool_rank,
                       std::chrono::steady_clock::time_point now);
  /// Under lock: refit `job`'s decomposition to the largest valid process
  /// grid whose rank count fits `target` (capped at the submitted
  /// spec.dims) — shrinking for a degraded budget or an elastic squeeze,
  /// re-growing for an elastic expansion.  Schedules a checkpoint reshard
  /// and drops the stale RAM replicas when the shape actually changes.
  /// Returns empty on success, else the reason no shape fits.
  std::string refit_job(Job& job, int target);
  /// Under lock: the single queue-entry point.  When ranks have been
  /// permanently retired, a job demanding more than the usable budget is
  /// reshaped (or failed) BEFORE it is queued — otherwise it would wait
  /// forever for capacity that cannot return, wedging drain()/shutdown().
  /// Returns false when the job was terminally failed instead of queued
  /// (finish_job has then already done the in_flight_ bookkeeping).
  bool push_job_checked(const std::shared_ptr<Job>& job);
  /// Under lock: the one terminal transition (kCompleted or kFailed):
  /// counts it, releases the job's RAM replicas, closes its rate and
  /// deadline metrics, drops in_flight_ and wakes waiters.
  void finish_job(Job& job, JobState state);
  /// Under lock: refresh the live service.queue_depth / service.free_ranks
  /// gauges; called wherever the queue or the rank budget changes.
  void update_gauges();

  PoolOptions options_;
  /// RAM replica cache shared by every job's attempts; own mutex, never
  /// touched under mu_ ordering constraints.
  ReplicaStore replicas_;
  /// Service metrics (own locks; the single source of the pool's counters,
  /// mutable so const accessors can look a counter up) and the
  /// scheduler-decision tracer.  The tracer's ring is only ever touched
  /// under mu_ (every instant site holds the pool lock), flushed once
  /// after the slots join.
  mutable obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: queue/budget changed
  std::condition_variable space_cv_;  ///< submitters: queue has space
  std::condition_variable done_cv_;   ///< waiters: a job went terminal
  Scheduler scheduler_;
  std::vector<std::shared_ptr<Job>> running_;
  std::vector<std::thread> slots_;
  std::vector<RankHealth> ranks_;  ///< index = pool rank id
  int in_flight_ = 0;  ///< queued + running + gated jobs, for drain()
  bool stopping_ = false;
  /// Slot joining happens exactly once even when shutdown() is called
  /// concurrently (explicit shutdown racing the destructor, or two user
  /// threads); a second join of the same std::thread is UB.
  std::once_flag shutdown_once_;
  int max_concurrent_ = 0;
  int max_ranks_in_flight_ = 0;
  /// Scheduler dispatch counter backing the jobs' dispatches_overtaken
  /// metric (see Job::dispatch_mark).
  std::uint64_t dispatches_ = 0;
  double rank_seconds_busy_ = 0.0;
  double degraded_rank_seconds_ = 0.0;
  std::chrono::steady_clock::time_point busy_mark_;
};

}  // namespace ca::service
