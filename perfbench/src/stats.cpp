#include "stats.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::uint64_t kWhole = 100000;

/// 1-based nearest rank: ceil(p * n / 100000), at least 1.
std::size_t nearest_rank(std::size_t n, Permille5 p) {
  const std::uint64_t scaled = static_cast<std::uint64_t>(p) * n;
  const std::uint64_t rank = (scaled + kWhole - 1) / kWhole;
  return static_cast<std::size_t>(std::max<std::uint64_t>(rank, 1));
}

}  // namespace

std::size_t samples_beyond(std::size_t n, Permille5 p) {
  if (n == 0) return 0;
  return n - std::min(n, nearest_rank(n, p));
}

bool percentile_supported(std::size_t n, Permille5 p) {
  return samples_beyond(n, p) >= 10;
}

std::optional<Permille5> highest_supported_percentile(std::size_t n) {
  if (!percentile_supported(n, kP50)) return std::nullopt;
  Permille5 best = kP50;
  // p90, p99, p99.9, p99.99, p99.999: each adds a nine.
  for (std::uint64_t gap = 10000; gap >= 1; gap /= 10) {
    const Permille5 p = static_cast<Permille5>(kWhole - gap);
    if (!percentile_supported(n, p)) break;
    best = p;
  }
  return best;
}

double percentile_sorted(const std::vector<double>& sorted, Permille5 p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

TailSummary summarize(std::vector<double>& values) {
  TailSummary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = percentile_sorted(values, kP50);
  summary.p99_supported = percentile_supported(values.size(), kP99);
  if (summary.p99_supported) summary.p99 = percentile_sorted(values, kP99);
  if (const auto tail = highest_supported_percentile(values.size())) {
    summary.tail_percentile = *tail;
    summary.tail = percentile_sorted(values, *tail);
  }
  return summary;
}

QuietHalf quieter_half(std::vector<TailSummary> windows) {
  QuietHalf out;
  std::stable_sort(windows.begin(), windows.end(),
                   [](const TailSummary& a, const TailSummary& b) { return a.p99 < b.p99; });
  windows.resize((windows.size() + 1) / 2);
  std::vector<double> p50s, p99s;
  for (const TailSummary& window : windows) {
    p50s.push_back(window.p50);
    p99s.push_back(window.p99);
    out.samples += window.count;
  }
  out.windows = windows.size();
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  return out;
}

double quieter_half_median(std::vector<TimedPass> passes) {
  std::stable_sort(passes.begin(), passes.end(), [](const TimedPass& a, const TimedPass& b) {
    return a.steal_share < b.steal_share;
  });
  passes.resize((passes.size() + 1) / 2);
  std::vector<double> seconds;
  for (const TimedPass& pass : passes) seconds.push_back(pass.seconds);
  return median(seconds);
}

double median_steal_share(const std::vector<TimedPass>& passes) {
  std::vector<double> shares;
  for (const TimedPass& pass : passes) shares.push_back(pass.steal_share);
  return median(shares);
}

}  // namespace perfbench
