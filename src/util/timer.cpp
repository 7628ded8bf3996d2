#include "util/timer.hpp"

namespace ca::util {

void PhaseTimers::add(const std::string& phase, double seconds) {
  totals_[phase] += seconds;
}

double PhaseTimers::total(const std::string& phase) const {
  auto it = totals_.find(phase);
  return it == totals_.end() ? 0.0 : it->second;
}

}  // namespace ca::util
