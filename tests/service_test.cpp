// Ensemble-service units that need no rank groups: JobSpec validation,
// the Scheduler's priority + FIFO + backoff + rank-fit policy, report
// schema self-checks, and the submit-side backpressure behavior.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "service/job.hpp"
#include "service/scheduler.hpp"
#include "service/service.hpp"
#include "util/config.hpp"
#include "test_temp_dir.hpp"

namespace ca::service {
namespace {

JobSpec tiny_spec() {
  JobSpec s;
  s.name = "tiny";
  s.core = CoreKind::kSerial;
  s.config.nx = 16;
  s.config.ny = 12;
  s.config.nz = 4;
  s.config.M = 2;
  s.steps = 1;
  return s;
}

TEST(JobValidation, AcceptsAWellFormedSpec) {
  EXPECT_EQ(validate(tiny_spec(), 4), "");
}

TEST(JobValidation, RejectsBadSpecs) {
  auto expect_reject = [](JobSpec s, const char* why) {
    EXPECT_NE(validate(s, 4), "") << why;
  };
  {
    JobSpec s = tiny_spec();
    s.steps = 0;
    expect_reject(s, "zero steps");
  }
  {
    JobSpec s = tiny_spec();
    s.dims = {1, 2, 1};
    expect_reject(s, "serial with 2 ranks");
  }
  {
    JobSpec s = tiny_spec();
    s.core = CoreKind::kOriginal;
    s.dims = {1, 5, 1};
    expect_reject(s, "more ranks than the pool budget");
  }
  {
    JobSpec s = tiny_spec();
    s.core = CoreKind::kCA;
    s.dims = {2, 1, 1};
    expect_reject(s, "CA with px > 1");
  }
  {
    JobSpec s = tiny_spec();
    s.core = CoreKind::kCA;
    s.dims = {1, 2, 1};
    expect_reject(s, "CA with ny/py below the deep-halo bound");
  }
  {
    JobSpec s = tiny_spec();
    s.max_attempts = 0;
    expect_reject(s, "empty attempt budget");
  }
}

TEST(JobValidation, AcceptsPreemptibleCAJobs) {
  // CA jobs used to be rejected with checkpoint_every > 0 because the
  // cross-step carry (deferred smoothing, stale C products) was not
  // checkpointed.  The carry now rides in the checkpoint's v3 core-carry
  // block, so a preemptible CA spec is valid.
  JobSpec s = tiny_spec();
  s.core = CoreKind::kCA;
  s.dims = {1, 2, 1};  // ny/py = 8 >= 3M + 1
  s.config.ny = 16;
  s.checkpoint_every = 1;
  EXPECT_EQ(validate(s, 4), "");
}

TEST(SchedulerPolicy, PriorityThenFifo) {
  using Clock = std::chrono::steady_clock;
  Scheduler q(8);
  auto mk = [](int id, int priority) {
    JobSpec s = tiny_spec();
    s.priority = priority;
    auto j = std::make_shared<Job>(id, s);
    return j;
  };
  auto a = mk(0, 0), b = mk(1, 5), c = mk(2, 5), d = mk(3, 1);
  for (auto& j : {a, b, c, d}) q.push(j);
  const auto now = Clock::now();
  EXPECT_EQ(q.pop_ready(now, 8)->id, 1);  // highest priority, first in
  EXPECT_EQ(q.pop_ready(now, 8)->id, 2);  // same priority, FIFO
  EXPECT_EQ(q.pop_ready(now, 8)->id, 3);
  EXPECT_EQ(q.pop_ready(now, 8)->id, 0);
  EXPECT_EQ(q.pop_ready(now, 8), nullptr);
}

TEST(SchedulerPolicy, RankFitAndBackoffGate) {
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;
  Scheduler q(8);
  JobSpec wide = tiny_spec();
  wide.core = CoreKind::kOriginal;
  wide.dims = {1, 4, 1};
  wide.priority = 9;
  auto big = std::make_shared<Job>(0, wide);
  auto small = std::make_shared<Job>(1, tiny_spec());
  q.push(big);
  q.push(small);
  const auto now = Clock::now();
  // Only 2 ranks free: the 4-rank job is skipped despite its priority.
  EXPECT_EQ(q.pop_ready(now, 2)->id, 1);
  // ...but it is what the pool should make room for.
  q.push(small);
  EXPECT_EQ(q.peek_ready(now)->id, 0);

  small->ready_at = now + 1h;  // backoff-gated
  EXPECT_EQ(q.pop_ready(now, 2), nullptr);
  EXPECT_EQ(q.next_ready_after(now), small->ready_at);
  EXPECT_NE(q.pop_ready(now + 2h, 2), nullptr);
}

TEST(SchedulerPolicy, BackfillPastTheHeadJobIsBounded) {
  // A wide high-priority job that never fits the free ranks must not be
  // starved by an endless stream of small backfill jobs grabbing the
  // ranks preemption frees for it: after kMaxBypasses backfills the
  // queue holds ranks until the head job fits.
  using Clock = std::chrono::steady_clock;
  Scheduler q(64);
  JobSpec wide = tiny_spec();
  wide.core = CoreKind::kOriginal;
  wide.dims = {1, 4, 1};
  wide.priority = 9;
  auto big = std::make_shared<Job>(0, wide);
  q.push(big);
  const auto now = Clock::now();
  int id = 1;
  for (int i = 0; i < Scheduler::kMaxBypasses; ++i) {
    q.push(std::make_shared<Job>(id++, tiny_spec()));
    ASSERT_NE(q.pop_ready(now, 2), nullptr)
        << "backfill below the bypass bound must keep the pool busy";
  }
  // Bypass budget spent: a fitting small job queues, but the ranks are
  // now reserved for the head job.
  q.push(std::make_shared<Job>(id++, tiny_spec()));
  EXPECT_EQ(q.pop_ready(now, 2), nullptr)
      << "backfill past the bypass bound starves the head job";
  // Once enough ranks free up, the head job pops and its budget resets.
  auto popped = q.pop_ready(now, 4);
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->id, 0);
  EXPECT_EQ(popped->bypassed, 0);
  // The queued small job is eligible again now that the head is gone.
  EXPECT_NE(q.pop_ready(now, 2), nullptr);
}

TEST(SchedulerPolicy, AgingLiftsAStarvedJobPastFreshPriority) {
  // Anti-starvation: with aging on, a low-priority job that has waited
  // long enough must outrank a fresh high-priority submission; with aging
  // off the static order stands.
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;
  Scheduler q(8);
  q.set_aging_rate(1.0);  // 1 priority point per waiting second
  const auto now = Clock::now();

  JobSpec lo = tiny_spec();
  lo.priority = 0;
  auto starved = std::make_shared<Job>(0, lo);
  starved->last_queued_at = now - 10s;  // boost 10 > priority gap 5

  JobSpec hi = tiny_spec();
  hi.priority = 5;
  auto fresh = std::make_shared<Job>(1, hi);
  fresh->last_queued_at = now;

  EXPECT_GT(q.effective_priority(*starved, now),
            q.effective_priority(*fresh, now));
  q.push(starved);
  q.push(fresh);
  EXPECT_EQ(q.pop_ready(now, 8)->id, 0) << "the starved job must run first";
  EXPECT_EQ(q.pop_ready(now, 8)->id, 1);

  // Aging off: the same wait gap no longer reorders anything.
  Scheduler strict(8);
  auto starved2 = std::make_shared<Job>(0, lo);
  starved2->last_queued_at = now - 10s;
  auto fresh2 = std::make_shared<Job>(1, hi);
  fresh2->last_queued_at = now;
  strict.push(starved2);
  strict.push(fresh2);
  EXPECT_EQ(strict.pop_ready(now, 8)->id, 1);

  // The shutdown drain passes TimePoint::max() as `now`; the boost must
  // saturate to a finite value (order degrades to FIFO), not go infinite.
  const double drained =
      q.effective_priority(*fresh, Clock::time_point::max());
  EXPECT_TRUE(std::isfinite(drained));
}

// Clears one CA_AGCM_* var for the enclosing scope and restores it on
// exit, so an outer environment (the CI replication leg exports
// CA_AGCM_SERVICE_REPLICATE / _DELTA_CHAIN) cannot shadow the file
// entries under test.
struct EnvGuard {
  std::string name;
  std::optional<std::string> old;
  explicit EnvGuard(const char* n) : name(n) {
    if (const char* v = std::getenv(n)) old = v;
    ::unsetenv(n);
  }
  ~EnvGuard() {
    if (old.has_value())
      ::setenv(name.c_str(), old->c_str(), 1);
    else
      ::unsetenv(name.c_str());
  }
};

TEST(PoolOptionsConfig, ReadsTheServiceKeys) {
  EnvGuard g1("CA_AGCM_SERVICE_REPLICATE");
  EnvGuard g2("CA_AGCM_SERVICE_DELTA_CHAIN");
  EnvGuard g3("CA_AGCM_SERVICE_DELTA_BLOCK_BYTES");
  const auto cfg = util::Config::from_text(
      "service.slots = 3\n"
      "service.rank_budget = 8\n"
      "service.queue_capacity = 5\n"
      "service.checkpoint_dir = /tmp/ca_cfg_test\n"
      "service.max_rank_strikes = 2\n"
      "service.quarantine_seconds = 1.5\n"
      "service.aging_rate = 0.25\n"
      "service.replicate = true\n"
      "service.delta_chain = 6\n"
      "service.delta_block_bytes = 8192\n");
  const PoolOptions o = PoolOptions::from_config(cfg);
  EXPECT_EQ(o.slots, 3);
  EXPECT_EQ(o.rank_budget, 8);
  EXPECT_EQ(o.queue_capacity, 5u);
  EXPECT_EQ(o.checkpoint_dir, "/tmp/ca_cfg_test");
  EXPECT_EQ(o.max_rank_strikes, 2);
  EXPECT_DOUBLE_EQ(o.quarantine_seconds, 1.5);
  EXPECT_DOUBLE_EQ(o.aging_rate, 0.25);
  EXPECT_TRUE(o.replicate);
  EXPECT_EQ(o.delta_chain, 6);
  EXPECT_EQ(o.delta_block_bytes, 8192u);
  // Defaults hold when nothing is set.
  const PoolOptions d = PoolOptions::from_config(util::Config{});
  EXPECT_EQ(d.max_rank_strikes, PoolOptions{}.max_rank_strikes);
  EXPECT_DOUBLE_EQ(d.aging_rate, 0.0);
  EXPECT_FALSE(d.replicate);
  EXPECT_EQ(d.delta_chain, 0);
  EXPECT_EQ(d.delta_block_bytes, 4096u);
  // The CI replication leg turns the feature on via env, which wins
  // over stored entries (the rule util::Config::env_name documents).
  ::setenv("CA_AGCM_SERVICE_REPLICATE", "1", 1);
  ::setenv("CA_AGCM_SERVICE_DELTA_CHAIN", "9", 1);
  const PoolOptions e = PoolOptions::from_config(cfg);
  EXPECT_TRUE(e.replicate);
  EXPECT_EQ(e.delta_chain, 9) << "env must shadow the stored entry";
}

TEST(Service, SweepsStaleTmpCheckpointsAtStartup) {
  // A crash between a checkpoint's tmp-write and its rename leaves a
  // `*.ckpt.tmp` behind; the pool must sweep OLD ones at startup and
  // leave real checkpoints alone.  A FRESH tmp may be a sibling pool's
  // atomic write in flight (two services can share a checkpoint_dir —
  // the default is "."), so the sweep is age-gated and must keep it.
  namespace fs = std::filesystem;
  const auto dir = test_support::temp_root() / "ca_service_tmp_sweep";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto stale = dir / "ca_service_job0.rank0.ckpt.tmp";
  const auto fresh = dir / "ca_service_job1.rank0.ckpt.tmp";
  const auto kept = dir / "ca_service_job0.rank0.ckpt";
  { std::ofstream(stale) << "partial"; }
  { std::ofstream(fresh) << "in-flight"; }
  { std::ofstream(kept) << "real"; }
  fs::last_write_time(
      stale, fs::file_time_type::clock::now() - std::chrono::hours(1));
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = dir.string();
  EnsembleService svc(opt);
  EXPECT_FALSE(fs::exists(stale)) << "stale tmp checkpoint not swept";
  EXPECT_TRUE(fs::exists(fresh))
      << "a fresh tmp (possibly another pool's in-flight write) was swept";
  EXPECT_TRUE(fs::exists(kept)) << "a completed checkpoint was removed";
  fs::remove_all(dir);
}

TEST(Report, OnlyTheCurrentSchemaValidates) {
  // A report produced by the live service validates; the same document
  // re-tagged with any retired revision (v1-v4) must not, and a v5
  // report missing its health section must not either.
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = test_support::temp_root().string();
  EnsembleService svc(opt);
  svc.submit(tiny_spec());
  svc.drain();
  const std::string v5 = svc.report().dump(2);
  ASSERT_EQ(validate_report(util::Json::parse(v5)), "");

  const std::string tag = "ca-agcm/service-report/v5";
  ASSERT_NE(v5.find(tag), std::string::npos);
  for (const char* retired : {"/v1", "/v2", "/v3", "/v4"}) {
    std::string old = v5;
    old.replace(old.find(tag) + tag.size() - 3, 3, retired);
    EXPECT_NE(validate_report(util::Json::parse(old)), "")
        << "a report tagged " << retired << " must be rejected";
  }

  const util::Json parsed = util::Json::parse(v5);
  util::Json missing_health = util::Json::object();
  for (const auto& [key, value] : parsed.members())
    if (key != "health") missing_health[key] = value;
  EXPECT_NE(validate_report(missing_health), "")
      << "a v5 report without the health section must be rejected";
}

TEST(Service, RejectsInvalidSubmit) {
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir =
      test_support::temp_root().string();
  EnsembleService svc(opt);
  JobSpec bad = tiny_spec();
  bad.steps = -1;
  EXPECT_THROW(svc.submit(bad), std::invalid_argument);
  EXPECT_THROW(svc.wait(123), std::out_of_range);
}

TEST(Service, ReportValidatesAgainstItsSchema) {
  ServiceOptions opt;
  opt.slots = 2;
  opt.rank_budget = 2;
  opt.checkpoint_dir =
      test_support::temp_root().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 2;
  s.deadline_seconds = 3600.0;
  const int a = svc.submit(s);
  const int b = svc.submit(s);
  svc.drain();
  EXPECT_EQ(svc.state(a), JobState::kCompleted);
  EXPECT_EQ(svc.state(b), JobState::kCompleted);

  const util::Json doc = svc.report();
  EXPECT_EQ(validate_report(doc), "");
  // The report must survive a serialize/parse round trip unchanged in
  // validity (what the bench writes to disk and re-checks).
  EXPECT_EQ(validate_report(util::Json::parse(doc.dump(2))), "");
  const util::Json* svc_obj = doc.find("service");
  ASSERT_NE(svc_obj, nullptr);
  EXPECT_EQ(svc_obj->find("jobs_completed")->as_double(), 2.0);
  EXPECT_EQ(svc_obj->find("jobs_failed")->as_double(), 0.0);

  // Both tiny jobs met their hour-long deadline.
  for (const auto& e : doc.find("jobs")->items())
    EXPECT_FALSE(e.find("deadline_missed")->as_bool());
}

TEST(Service, CreatesTheCheckpointDirectory) {
  // A missing checkpoint directory must not make preemptible jobs burn
  // their attempt budget on fopen failures: the pool materializes it.
  const auto root =
      test_support::temp_root() / "ca_service_ckpt_dir";
  std::filesystem::remove_all(root);
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = (root / "nested").string();
  EnsembleService svc(opt);
  EXPECT_TRUE(std::filesystem::is_directory(root / "nested"));
  JobSpec s = tiny_spec();
  s.steps = 2;
  s.checkpoint_every = 1;
  const int id = svc.submit(s);
  svc.drain();
  EXPECT_EQ(svc.state(id), JobState::kCompleted);
  std::filesystem::remove_all(root);
}

TEST(Service, ResultTakesTheFinalStateExactlyOnce) {
  // result() moves the gathered final state out of the job record; a
  // second call used to return an EMPTY state silently, which a caller
  // could then "successfully" compare against.  Now the repeat take is
  // flagged explicitly.
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir =
      test_support::temp_root().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 2;
  const int id = svc.submit(s);
  svc.wait(id);

  const JobResult first = svc.result(id);
  ASSERT_EQ(first.state, JobState::kCompleted) << first.error;
  EXPECT_FALSE(first.state_already_taken);
  EXPECT_GT(first.final_state.interior().volume(), 0)
      << "first take must carry the gathered state";

  const JobResult second = svc.result(id);
  EXPECT_EQ(second.state, JobState::kCompleted);
  EXPECT_TRUE(second.state_already_taken)
      << "repeat take must be flagged, not silently empty";
  EXPECT_EQ(second.final_state.interior().volume(), 0);
  // Non-state fields stay reportable on every call.
  EXPECT_EQ(second.steps_done, first.steps_done);
}

TEST(Service, NonBlockingSubmitBackpressure) {
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.queue_capacity = 1;
  opt.checkpoint_dir =
      test_support::temp_root().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 200;  // long enough to keep the single slot busy
  // Occupy the slot, fill the one queue seat, then the queue must refuse.
  const int first = svc.submit(s, /*block=*/false);
  ASSERT_GE(first, 0);
  const auto start = std::chrono::steady_clock::now();
  while (svc.state(first) == JobState::kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int queued = svc.submit(s, /*block=*/false);
  ASSERT_GE(queued, 0) << "an empty queue must accept";
  EXPECT_EQ(svc.submit(s, /*block=*/false), -1)
      << "a full bounded queue must refuse a non-blocking submit";
  svc.drain();
  EXPECT_EQ(svc.state(first), JobState::kCompleted);
  EXPECT_EQ(svc.state(queued), JobState::kCompleted);
}

}  // namespace
}  // namespace ca::service
