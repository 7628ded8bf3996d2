// Shared helpers of the ensemble-service test suites: the solo reference
// run, the bitwise comparison against it, an environment pin for the CI
// override legs, and a wait for a job's dispatch.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "comm/fault.hpp"
#include "service/runner.hpp"
#include "service/service.hpp"
#include "state/state.hpp"

namespace ca::test_support {

/// Solo reference: the same spec run once, uninterrupted and fault-free
/// (no injected faults, no node-resident faults, no checkpoints), through
/// the identical attempt machinery the service uses.
inline state::State solo_run(service::JobSpec spec,
                             const std::string& prefix) {
  spec.faults = comm::FaultPlan();
  spec.node_faults.clear();
  spec.checkpoint_every = 0;
  spec.comm = comm::RunOptions{};
  service::AttemptResult r = service::run_attempt(spec, 1, 0, prefix, {});
  EXPECT_TRUE(r.completed(spec.steps))
      << "solo reference for '" << spec.name << "' failed: " << r.error;
  return std::move(r.global);
}

inline void expect_bitwise(const state::State& got, const state::State& want,
                           const std::string& name) {
  ASSERT_GT(want.interior().volume(), 0) << name << ": empty reference";
  const double diff = state::State::max_abs_diff(got, want, want.interior());
  EXPECT_EQ(diff, 0.0) << name << ": service result diverged from solo run";
}

/// Unsets an environment variable for the guard's lifetime and restores
/// it on destruction.  The CI legs force service and health knobs on
/// through their env overrides, and PoolOptions reads those overrides,
/// so a test that depends on a value it set in code pins it with this.
struct ScopedUnsetEnv {
  explicit ScopedUnsetEnv(const char* name) : name_(name) {
    const char* v = ::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
    ::unsetenv(name);
  }
  ~ScopedUnsetEnv() {
    if (had_) ::setenv(name_, saved_.c_str(), 1);
  }
  ScopedUnsetEnv(const ScopedUnsetEnv&) = delete;
  ScopedUnsetEnv& operator=(const ScopedUnsetEnv&) = delete;
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

/// Waits (up to 30 s) until job `id` leaves the queue and asserts that it
/// is running, not already finished.
inline void await_running(service::EnsembleService& svc, int id) {
  const auto start = std::chrono::steady_clock::now();
  while (svc.state(id) == service::JobState::kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30))
        << "job " << id << " never ran";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(svc.state(id), service::JobState::kRunning);
}

}  // namespace ca::test_support
