// Tests of the benchmark's own machinery: the percentile rule, self time
// from nested spans, the max-rate ladder search, and the correctness gate.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "digest.hpp"
#include "ladder.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// --- percentile rule ---------------------------------------------------------

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, kP99), 10u);
  EXPECT_TRUE(percentile_supported(1000, kP99));
  EXPECT_FALSE(percentile_supported(999, kP99));
  EXPECT_TRUE(percentile_supported(100, kP90));
  EXPECT_FALSE(percentile_supported(99, kP90));
  EXPECT_FALSE(percentile_supported(19, kP50));
  EXPECT_TRUE(percentile_supported(20, kP50));
}

TEST(PercentileRule, HighestSupportedFollowsSampleCount) {
  EXPECT_FALSE(highest_supported_percentile(0).has_value());
  EXPECT_FALSE(highest_supported_percentile(19).has_value());
  EXPECT_EQ(*highest_supported_percentile(20), kP50);
  EXPECT_EQ(*highest_supported_percentile(999), kP90);
  EXPECT_EQ(*highest_supported_percentile(1000), kP99);
  EXPECT_EQ(*highest_supported_percentile(9999), kP99);
  EXPECT_EQ(*highest_supported_percentile(10000), Permille5{99900});
  EXPECT_EQ(*highest_supported_percentile(100000), Permille5{99990});
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted input
  const TailSummary summary = summarize(values);
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_DOUBLE_EQ(summary.p50, 500.0);
  ASSERT_TRUE(summary.p99_supported);
  EXPECT_DOUBLE_EQ(summary.p99, 990.0);  // exactly ten samples beyond
  EXPECT_EQ(summary.tail_percentile, kP99);

  std::vector<double> short_sample(999, 1.0);
  const TailSummary short_summary = summarize(short_sample);
  EXPECT_FALSE(short_summary.p99_supported);
  EXPECT_EQ(short_summary.tail_percentile, kP90);
}

TEST(PercentileRule, MedianOfEvenAndOdd) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PercentileRule, QuieterHalfDropsTheNoisierWindows) {
  auto window = [](double p50, double p99) {
    TailSummary summary;
    summary.count = 1000;
    summary.p50 = p50;
    summary.p99 = p99;
    summary.p99_supported = true;
    return summary;
  };
  // Two of five windows were stalled; the three quiet ones decide.
  const QuietHalf figures = quieter_half({window(0.2, 1.0), window(0.9, 50.0),
                                          window(0.3, 1.2), window(0.25, 1.1),
                                          window(1.5, 60.0)});
  EXPECT_EQ(figures.windows, 3u);
  EXPECT_EQ(figures.samples, 3000u);
  EXPECT_DOUBLE_EQ(figures.p99, 1.1);
  EXPECT_DOUBLE_EQ(figures.p50, 0.25);
  // A slower program moves every window, and so the figures.
  const QuietHalf slower = quieter_half({window(0.4, 2.0), window(0.5, 2.2)});
  EXPECT_EQ(slower.windows, 1u);
  EXPECT_DOUBLE_EQ(slower.p99, 2.0);
  EXPECT_EQ(quieter_half({window(0.1, 0.5)}).windows, 1u);
}

TEST(PercentileRule, QuieterHalfMedianDropsTheStolenPasses) {
  // Two of five passes lost CPU to the hypervisor; the three quiet ones
  // decide, whatever their order.
  EXPECT_DOUBLE_EQ(quieter_half_median({{2.4, 0.01}, {3.3, 0.12}, {2.6, 0.0},
                                        {2.5, 0.02}, {2.9, 0.06}}),
                   2.5);
  // Even counts keep half and take the middle pair's mean.
  EXPECT_DOUBLE_EQ(quieter_half_median({{2.0, 0.3}, {1.0, 0.0}, {3.0, 0.1}, {9.0, 0.5}}),
                   2.0);
  EXPECT_DOUBLE_EQ(quieter_half_median({{1.5, 0.9}}), 1.5);
  EXPECT_DOUBLE_EQ(quieter_half_median({}), 0.0);
}

// --- self time from nested spans ---------------------------------------------

Span span(std::uint32_t id, std::uint32_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Parent [0,100]; children [10,30] and [20,50] overlap (union 40) and a
  // grandchild inside the first child must not be subtracted from the root.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 1, 20, 50), span(4, 2, 12, 18)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 14);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  // A child filed with a slightly wider interval (clock reads on either
  // side of the parent's) is clipped; self time never goes negative.
  const std::vector<Span> spans = {span(1, 0, 100, 200), span(2, 1, 90, 150),
                                   span(3, 1, 190, 260)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 40);
}

TEST(SelfTime, SumsByNameWithinAnIdRange) {
  Tracer tracer(true);
  const std::uint32_t a = tracer.add("pass", 0, 100);
  tracer.add("stage", 10, 40, a);
  tracer.add("stage", 50, 70, a);
  const std::uint32_t b = tracer.add("pass", 200, 300);
  tracer.add("stage", 210, 290, b);
  const auto first = self_seconds_by_name(tracer.spans(), a, b - 1);
  EXPECT_NEAR(first.at("pass"), 50e-9, 1e-15);
  EXPECT_NEAR(first.at("stage"), 50e-9, 1e-15);
  const auto second = self_seconds_by_name(tracer.spans(), b);
  EXPECT_NEAR(second.at("pass"), 20e-9, 1e-15);
  EXPECT_NEAR(second.at("stage"), 80e-9, 1e-15);
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    ScopedSpan outer(tracer, "outer");
    ScopedSpan inner(tracer, "inner", outer.id());
    EXPECT_EQ(outer.id(), 0u);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

// --- max-rate ladder search --------------------------------------------------

TEST(Ladder, StepsAreAtMostFivePercent) {
  const std::vector<double> ladder = rate_ladder(100.0, 10000.0, 1.05);
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(ladder.front(), 100.0);
  EXPECT_LE(ladder.back(), 10000.0);
  for (std::size_t i = 1; i < ladder.size(); ++i)
    EXPECT_LE(ladder[i] / ladder[i - 1], 1.05 + 1e-12);
  EXPECT_THROW(rate_ladder(100.0, 200.0, 1.10), std::invalid_argument);
}

/// p99 of an M/M/1-like server: base / (1 - rate / capacity).
double synthetic_p99_ms(double rate, double capacity, double base_ms) {
  if (rate >= capacity) return 1e9;
  return base_ms / (1.0 - rate / capacity);
}

TEST(Ladder, SearchFindsTheHighestRungMeetingTheLimit) {
  const std::vector<double> ladder = rate_ladder(500.0, 40000.0, 1.05);
  for (const double capacity : {800.0, 5000.0, 12345.0, 39000.0}) {
    const double limit_ms = 5.0;
    int expected = -1;
    for (std::size_t i = 0; i < ladder.size(); ++i)
      if (synthetic_p99_ms(ladder[i], capacity, 0.5) <= limit_ms)
        expected = static_cast<int>(i);
    int probes = 0;
    const int found = highest_passing_rung(ladder, [&](double rate) {
      ++probes;
      StepStats step;
      step.rate = rate;
      step.p99_supported = true;
      step.p99_ms = synthetic_p99_ms(rate, capacity, 0.5);
      return judge_step(step, {limit_ms, 2.0, 0.1, 8}) == StepVerdict::kMeets;
    });
    EXPECT_EQ(found, expected) << "capacity " << capacity;
    EXPECT_LE(probes, static_cast<int>(std::ceil(std::log2(ladder.size() + 1))) + 1);
  }
}

TEST(Ladder, NoRungPasses) {
  const std::vector<double> ladder = rate_ladder(500.0, 1000.0, 1.05);
  EXPECT_EQ(highest_passing_rung(ladder, [](double) { return false; }), -1);
  EXPECT_EQ(highest_passing_rung(ladder, [](double) { return true; }),
            static_cast<int>(ladder.size()) - 1);
}

TEST(Ladder, JudgeStep) {
  const StepLimits limits{10.0, 2.0, 0.1, 8};
  StepStats ok;
  ok.rate = 1000.0;
  ok.p99_supported = true;
  ok.p99_ms = 3.0;
  ok.backlog_end = 9;  // within rate x limit = 10 in flight
  EXPECT_EQ(judge_step(ok, limits), StepVerdict::kMeets);

  StepStats growing = ok;
  growing.backlog_end = 11;
  EXPECT_EQ(judge_step(growing, limits), StepVerdict::kMisses);

  StepStats slow = ok;
  slow.p99_ms = 10.5;
  EXPECT_EQ(judge_step(slow, limits), StepVerdict::kMisses);

  StepStats failed = ok;
  failed.failed = 1;
  EXPECT_EQ(judge_step(failed, limits), StepVerdict::kMisses);

  StepStats late = ok;
  late.late_p99_ms = 2.5;
  EXPECT_EQ(judge_step(late, limits), StepVerdict::kInvalid);

  StepStats stolen = ok;
  stolen.steal_share = 0.15;
  EXPECT_EQ(judge_step(stolen, limits), StepVerdict::kInvalid);

  StepStats thin = ok;
  thin.p99_supported = false;
  EXPECT_EQ(judge_step(thin, limits), StepVerdict::kInvalid);
}

// --- correctness gate --------------------------------------------------------

TEST(CorrectnessGate, AcceptsIdenticalDigests) {
  const Digests reference = {{"bbara.worst_case", digest_of("{\"nmin\":[1,2]}")},
                             {"bbara.partition", digest_of("[]")}};
  EXPECT_TRUE(compare_digests(reference, reference).empty());
}

TEST(CorrectnessGate, RejectsAPerturbedDigest) {
  const Digests reference = {{"bbara.worst_case", digest_of("{\"nmin\":[1,2]}")},
                             {"bbara.partition", digest_of("[]")}};
  Digests perturbed = reference;
  perturbed["bbara.worst_case"] = digest_of("{\"nmin\":[1,3]}");
  const std::vector<Mismatch> mismatches = compare_digests(reference, perturbed);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].key, "bbara.worst_case");
  EXPECT_EQ(mismatches[0].expected, reference.at("bbara.worst_case"));
  EXPECT_EQ(mismatches[0].actual, perturbed.at("bbara.worst_case"));

  // Flipping one character of a stored digest is caught too.
  Digests flipped = reference;
  std::string& digest = flipped["bbara.partition"];
  digest[0] = digest[0] == '0' ? '1' : '0';
  EXPECT_EQ(compare_digests(reference, flipped).size(), 1u);
}

TEST(CorrectnessGate, RejectsMissingAndUnexpectedKeys) {
  const Digests reference = {{"a", "1"}, {"b", "2"}};
  const Digests missing = {{"a", "1"}};
  const Digests extra = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  ASSERT_EQ(compare_digests(reference, missing).size(), 1u);
  EXPECT_TRUE(compare_digests(reference, missing)[0].actual.empty());
  ASSERT_EQ(compare_digests(reference, extra).size(), 1u);
  EXPECT_TRUE(compare_digests(reference, extra)[0].expected.empty());
}

TEST(CorrectnessGate, ResponsePayloadDigest) {
  const std::string line =
      "{\"id\":7,\"ok\":true,\"type\":\"worst_case\",\"circuit\":\"tav\","
      "\"cache_hit\":true,\"elapsed_ms\":0.25,\"result\":{\"nmin\":[1,2,3]},"
      "\"session\":{\"thread_count\":1}}";
  const Response response = parse_response(line.data(), line.size());
  EXPECT_EQ(response.id, 7u);
  EXPECT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.elapsed_ms, 0.25);
  const std::string expected = "{\"nmin\":[1,2,3]}";
  EXPECT_EQ(response.result_size, expected.size());
  EXPECT_EQ(response.result_hash, payload_hash(expected.data(), expected.size()));
  const std::string perturbed = "{\"nmin\":[1,2,4]}";
  EXPECT_NE(response.result_hash, payload_hash(perturbed.data(), perturbed.size()));
}

}  // namespace
}  // namespace perfbench
