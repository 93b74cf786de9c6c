// ladder.hpp -- the open-loop max-rate search.
//
// Offered rates come from a fixed geometric ladder (each step at most 5%
// above the last), so two runs, or two commits, probe the same rates.  A
// step meets the latency limit when its p99 (supported by the sample, see
// stats.hpp) is within the limit, no request failed, and the backlog did
// not grow: requests sent but not completed when the step's last request
// was due stay within what the limit itself allows in flight (Little's law:
// rate x limit).  A step during which the generator itself ran late, or
// the hypervisor took more than a set share of the machine's CPU time, is
// invalid -- it says nothing about the server -- and never counts as met.
// The search assumes that meeting the limit is monotone in the rate and
// binary-searches the ladder.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// lo, lo*growth, lo*growth^2, ... up to and including the last rung <= hi.
std::vector<double> rate_ladder(double lo, double hi, double growth);

struct StepStats {
  double rate = 0.0;              ///< offered requests per second
  std::size_t failed = 0;         ///< error, shed, timeout or wrong output
  std::size_t backlog_end = 0;    ///< sent - completed at the last due time
  bool p99_supported = false;
  double p99_ms = 0.0;            ///< latency from due time to response
  double late_p99_ms = 0.0;       ///< generator lateness (send - due)
  double steal_share = 0.0;       ///< CPU time stolen by the hypervisor
};

struct StepLimits {
  double p99_limit_ms = 0.0;
  double max_late_ms = 0.0;       ///< beyond this the step is invalid
  double max_steal_share = 1.0;   ///< likewise
  std::size_t backlog_floor = 0;  ///< in-flight allowance at tiny rates
};

enum class StepVerdict { kMeets, kMisses, kInvalid };

StepVerdict judge_step(const StepStats& step, const StepLimits& limits);

/// Index of the highest ladder rung whose probe returns true, probing
/// O(log n) rungs; -1 when the lowest rung fails.  Probes above a rung
/// already known to fail are skipped.
int highest_passing_rung(const std::vector<double>& ladder,
                         const std::function<bool(double)>& passes);

}  // namespace perfbench
