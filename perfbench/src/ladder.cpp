#include "ladder.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

std::vector<double> rate_ladder(double lo, double hi, double growth) {
  if (!(lo > 0.0) || hi < lo || !(growth > 1.0) || growth > 1.05)
    throw std::invalid_argument("rate_ladder: need 0 < lo <= hi, 1 < growth <= 1.05");
  std::vector<double> ladder;
  for (double rate = lo; rate <= hi * (1.0 + 1e-12); rate *= growth)
    ladder.push_back(rate);
  return ladder;
}

StepVerdict judge_step(const StepStats& step, const StepLimits& limits) {
  if (step.late_p99_ms > limits.max_late_ms ||
      step.steal_share > limits.max_steal_share || !step.p99_supported)
    return StepVerdict::kInvalid;
  const double allowed_in_flight =
      std::max(static_cast<double>(limits.backlog_floor),
               step.rate * limits.p99_limit_ms / 1000.0);
  if (step.failed > 0 || step.p99_ms > limits.p99_limit_ms ||
      static_cast<double>(step.backlog_end) > allowed_in_flight)
    return StepVerdict::kMisses;
  return StepVerdict::kMeets;
}

int highest_passing_rung(const std::vector<double>& ladder,
                         const std::function<bool(double)>& passes) {
  // Invariant: every rung <= lo passes (lo = -1: none known), every rung
  // >= hi fails (hi = size: none known).
  int lo = -1;
  int hi = static_cast<int>(ladder.size());
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(ladder[static_cast<std::size_t>(mid)]))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace perfbench
