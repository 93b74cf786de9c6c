// stats.hpp -- the summary statistics every perfbench metric goes through.
//
// Timings are reported as a median plus the highest percentile the sample
// supports: a percentile counts as supported only when at least ten samples
// lie beyond it, so a "p99" needs 1000 samples and a run with 999 reports
// p90 as its tail.  Percentiles use the nearest-rank definition on the
// sorted sample, computed in integer arithmetic so that rank boundaries
// (exactly 1000 samples for p99) are not blurred by rounding.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile in parts per 100000 (p50 = 50000, p99.9 = 99900), so the
/// standard ladder of nines is exact.
using Permille5 = std::uint32_t;

inline constexpr Permille5 kP50 = 50000;
inline constexpr Permille5 kP90 = 90000;
inline constexpr Permille5 kP99 = 99000;

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, Permille5 p);

/// True when at least ten samples lie beyond the `p` percentile.
bool percentile_supported(std::size_t n, Permille5 p);

/// The highest of p50, p90, p99, p99.9, ... that `n` samples support;
/// disengaged when not even the median has ten samples beyond it.
std::optional<Permille5> highest_supported_percentile(std::size_t n);

/// Nearest-rank percentile of an ascending sample (must be non-empty).
double percentile_sorted(const std::vector<double>& sorted, Permille5 p);

/// Median of an unsorted sample (mean of the middle pair for even sizes);
/// 0 for an empty sample.
double median(std::vector<double> values);

/// A latency summary under the percentile rule.
struct TailSummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;        ///< valid only when p99_supported
  bool p99_supported = false;
  Permille5 tail_percentile = 0;  ///< highest supported (0 = none)
  double tail = 0.0;              ///< value at tail_percentile
};

/// Summarizes an unsorted sample (sorted in place).
TailSummary summarize(std::vector<double>& values);

/// A step measured in consecutive windows, reduced to one p50 and one p99:
/// the medians of the window figures over the quieter half of the windows
/// (the half with the lower p99; a single window is kept).  On a shared
/// virtual machine, interference from the host stalls a varying minority
/// of windows; a slower program moves every window.
struct QuietHalf {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t windows = 0;  ///< windows kept
  std::size_t samples = 0;  ///< samples in them
};

QuietHalf quieter_half(std::vector<TailSummary> windows);

/// One timed pass and the share of the machine's CPU time the hypervisor
/// stole while it ran.
struct TimedPass {
  double seconds = 0.0;
  double steal_share = 0.0;
};

/// The median pass time over the quieter half of the passes: the half
/// during which the hypervisor stole the least CPU time (a single pass is
/// kept).  A pass the host stalled says little about the program; a
/// slower program slows every pass.  0 for no passes.
double quieter_half_median(std::vector<TimedPass> passes);

/// The median steal share over the passes (a run's disturbance, recorded
/// beside its figures).
double median_steal_share(const std::vector<TimedPass>& passes);

}  // namespace perfbench
