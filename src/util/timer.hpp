// Wall-clock timer and the per-rank phase totals that obs:: phase spans
// feed (collective, exchange, exchange_wait, ...).
#pragma once

#include <chrono>
#include <map>
#include <string>

namespace ca::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates seconds under string keys.  It reads no clock: the only
/// writer is obs::Tracer::phase_span(), whose spans charge their elapsed
/// time here, so trace timelines and phase totals share one clock pair.
/// Not thread-safe; each logical rank keeps its own.
class PhaseTimers {
 public:
  void add(const std::string& phase, double seconds);
  /// Seconds accumulated under `phase` (0 for a key never added).
  double total(const std::string& phase) const;
  const std::map<std::string, double>& totals() const { return totals_; }

 private:
  std::map<std::string, double> totals_;
};

}  // namespace ca::util
