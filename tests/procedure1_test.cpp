// procedure1_test.cpp -- Section 3 of the paper: Procedure 1 and the
// average-case analysis, plus the escape-probability helper and the
// equivalence suite pinning the sharded engine to the serial baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "core/detection_db.hpp"
#include "core/escape.hpp"
#include "core/procedure1.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "util/simd.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

const DetectionDb& paper_db() {
  static const DetectionDb db = DetectionDb::build(paper_example());
  return db;
}

std::vector<std::size_t> all_monitored(const DetectionDb& db) {
  std::vector<std::size_t> idx(db.untargeted().size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

/// Definition-1 detection count of target i in a test list.
std::size_t def1_count(const DetectionDb& db, std::size_t i,
                       const std::vector<std::uint32_t>& tests) {
  std::size_t count = 0;
  for (const auto t : tests)
    if (db.target_sets()[i].test(t)) ++count;
  return count;
}

TEST(Procedure1, EverySetIsAnNDetectionTestSet) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 25;
  config.seed = 11;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);

  for (int n = 1; n <= config.nmax; ++n) {
    const auto& snapshot = result.test_sets[static_cast<std::size_t>(n - 1)];
    ASSERT_EQ(snapshot.size(), config.num_sets);
    for (const auto& tests : snapshot) {
      for (std::size_t i = 0; i < db.targets().size(); ++i) {
        const std::size_t available = db.target_sets()[i].count();
        const std::size_t required =
            std::min<std::size_t>(static_cast<std::size_t>(n), available);
        EXPECT_GE(def1_count(db, i, tests), required)
            << "n=" << n << " fault " << i;
      }
    }
  }
}

TEST(Procedure1, TestSetsContainNoDuplicates) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 10;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (const auto& tests : result.test_sets.back()) {
    std::set<std::uint32_t> unique(tests.begin(), tests.end());
    EXPECT_EQ(unique.size(), tests.size());
  }
}

TEST(Procedure1, DeterministicInSeed) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 8;
  config.seed = 77;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult a = run_procedure1(db, monitored, config);
  const AverageCaseResult b = run_procedure1(db, monitored, config);
  EXPECT_EQ(a.test_sets.back(), b.test_sets.back());
  EXPECT_EQ(a.detect_count, b.detect_count);
  config.seed = 78;
  const AverageCaseResult c = run_procedure1(db, monitored, config);
  EXPECT_NE(a.test_sets.back(), c.test_sets.back());
}

TEST(Procedure1, DetectionCountsAreMonotoneInN) {
  // Test sets only grow across iterations, so d(n,g) cannot decrease.
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 40;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (std::size_t j = 0; j < monitored.size(); ++j)
    for (int n = 2; n <= config.nmax; ++n)
      EXPECT_GE(result.detect_count[static_cast<std::size_t>(n - 1)][j],
                result.detect_count[static_cast<std::size_t>(n - 2)][j]);
}

TEST(Procedure1, GuaranteeCrossCheckWithWorstCase) {
  // The paper's central invariant: an untargeted fault with nmin(g) <= n is
  // detected by EVERY n-detection test set, i.e. p(n,g) = 1.
  const DetectionDb& db = paper_db();
  const WorstCaseResult worst = analyze_worst_case(db);
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 60;
  config.seed = 3;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (std::size_t j = 0; j < monitored.size(); ++j) {
    for (int n = 1; n <= config.nmax; ++n) {
      if (worst.nmin[j] <= static_cast<std::uint64_t>(n)) {
        EXPECT_DOUBLE_EQ(result.probability(n, j), 1.0)
            << "g" << j << " nmin=" << worst.nmin[j] << " n=" << n;
      }
    }
  }
}

TEST(Procedure1, ProbabilitiesAreWithinRange) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 30;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (int n = 1; n <= config.nmax; ++n)
    for (std::size_t j = 0; j < monitored.size(); ++j) {
      const double p = result.probability(n, j);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
}

TEST(Procedure1, SetSizesGrowWithN) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 12;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (std::size_t k = 0; k < config.num_sets; ++k)
    for (int n = 2; n <= config.nmax; ++n)
      EXPECT_GE(result.set_sizes[static_cast<std::size_t>(n - 1)][k],
                result.set_sizes[static_cast<std::size_t>(n - 2)][k]);
}

TEST(Procedure1, ThresholdCountsAreCumulative) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 20;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  std::size_t previous = 0;
  for (const double threshold : {1.0, 0.9, 0.5, 0.1, 0.0}) {
    const std::size_t count = result.count_probability_at_least(2, threshold);
    EXPECT_GE(count, previous);
    previous = count;
  }
  EXPECT_EQ(result.count_probability_at_least(2, 0.0), monitored.size());
}

TEST(Procedure1, MonitoredSubsetOnly) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 5;
  const std::vector<std::size_t> monitored{5, 6};  // the two nmin=4 faults
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  EXPECT_EQ(result.monitored, monitored);
  EXPECT_EQ(result.detect_count[0].size(), 2u);
}

TEST(Procedure1, InvalidArgumentsThrow) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 0;
  EXPECT_THROW((void)run_procedure1(db, {}, config), contract_error);
  config = Procedure1Config{};
  config.num_sets = 0;
  EXPECT_THROW((void)run_procedure1(db, {}, config), contract_error);
  config = Procedure1Config{};
  const std::vector<std::size_t> bad{99};
  EXPECT_THROW((void)run_procedure1(db, bad, config), contract_error);
}

// --- Definition 2 -----------------------------------------------------------

TEST(Procedure1Def2, SetsRemainNDetectionUnderDefinitionOne) {
  // The Definition-1 fallback guarantees the standard n-detection property
  // even when Definition-2 counting saturates early.
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 15;
  config.definition = DetectionDefinition::kDissimilar;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (const auto& tests : result.test_sets.back()) {
    for (std::size_t i = 0; i < db.targets().size(); ++i) {
      const std::size_t available = db.target_sets()[i].count();
      const std::size_t required = std::min<std::size_t>(3, available);
      EXPECT_GE(def1_count(db, i, tests), required) << "fault " << i;
    }
  }
  // Fault f0 = 1/1 has all-similar tests, so fallbacks must have happened.
  EXPECT_GT(result.stats.def1_fallbacks, 0u);
  EXPECT_GT(result.stats.distinct_queries, 0u);
}

TEST(Procedure1Def2, GuaranteeCrossCheckStillHolds) {
  const DetectionDb& db = paper_db();
  const WorstCaseResult worst = analyze_worst_case(db);
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 30;
  config.definition = DetectionDefinition::kDissimilar;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  for (std::size_t j = 0; j < monitored.size(); ++j) {
    if (worst.nmin[j] <= 4u) {
      EXPECT_DOUBLE_EQ(result.probability(4, j), 1.0) << "g" << j;
    }
  }
}

TEST(Procedure1Def2, DeterministicInSeed) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 6;
  config.definition = DetectionDefinition::kDissimilar;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult a = run_procedure1(db, monitored, config);
  const AverageCaseResult b = run_procedure1(db, monitored, config);
  EXPECT_EQ(a.test_sets.back(), b.test_sets.back());
}

TEST(Procedure1Def2, TendsToSpreadTests) {
  // For fault f1 = 2/0 the Definition-2 sets should, at n = 2, include two
  // dissimilar tests (e.g. one of {6,7} and one of {12..15}) more often than
  // chance; verify the aggregate effect: the bridging fault g0 with
  // T(g0) = {6,7} is detected at least as often under Definition 2.
  const DetectionDb& db = paper_db();
  const auto monitored = all_monitored(db);
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 200;
  config.seed = 5;
  const AverageCaseResult def1 = run_procedure1(db, monitored, config);
  config.definition = DetectionDefinition::kDissimilar;
  const AverageCaseResult def2 = run_procedure1(db, monitored, config);
  EXPECT_GE(def2.probability(2, 0) + 0.05, def1.probability(2, 0));
}

TEST(Procedure1Def2, ChargesMatchTheSequentialScan) {
  // distinct_queries charges every candidate what a scan making one oracle
  // call per (candidate, counted test) pair, stopping at the first similar
  // test, would make.  These figures are that scan's; the lane-packed
  // screening must reproduce them.  ex6 and opus (256 and 512 vectors)
  // take the refresh, enumeration and bounded-probe paths; keyb (4096
  // vectors) also takes probes that succeed against a non-empty counted
  // set, where probes after the chosen one must not be charged.
  struct Pin {
    const char* circuit;
    int nmax;
    std::size_t num_sets;
    std::uint64_t tests_added, def1_fallbacks, distinct_queries;
  };
  for (const Pin& pin : {Pin{"paper", 5, 12, 192, 131, 1787},
                         Pin{"ex6", 5, 12, 1469, 1143, 200777},
                         Pin{"opus", 5, 12, 3100, 2433, 339963},
                         Pin{"keyb", 3, 8, 2972, 1812, 663874}}) {
    const DetectionDb db =
        std::string(pin.circuit) == "paper"
            ? DetectionDb::build(paper_example())
            : DetectionDb::build(fsm_benchmark_circuit(pin.circuit));
    Procedure1Config config;
    config.nmax = pin.nmax;
    config.num_sets = pin.num_sets;
    config.seed = 17;
    config.definition = DetectionDefinition::kDissimilar;
    config.def2_probe_limit = 8;
    const AverageCaseResult result =
        run_procedure1(db, all_monitored(db), config);
    SCOPED_TRACE(pin.circuit);
    EXPECT_EQ(result.stats.tests_added, pin.tests_added);
    EXPECT_EQ(result.stats.def1_fallbacks, pin.def1_fallbacks);
    EXPECT_EQ(result.stats.distinct_queries, pin.distinct_queries);
  }
}

// --- Parallel-engine equivalence --------------------------------------------

/// The full bit-identity contract between two engine runs: detection
/// counts, set sizes, the test sets themselves, the deterministic stats
/// counters, and the Definition-2 kernel work (every pass serves one set's
/// trajectory, so it does not depend on how sets are grouped or scheduled).
void expect_identical_runs(const AverageCaseResult& a,
                           const AverageCaseResult& b) {
  EXPECT_EQ(a.detect_count, b.detect_count);
  EXPECT_EQ(a.set_sizes, b.set_sizes);
  EXPECT_EQ(a.test_sets, b.test_sets);
  EXPECT_EQ(a.stats.tests_added, b.stats.tests_added);
  EXPECT_EQ(a.stats.def1_fallbacks, b.stats.def1_fallbacks);
  EXPECT_EQ(a.stats.distinct_queries, b.stats.distinct_queries);
  EXPECT_EQ(a.def2_cache.word_passes, b.def2_cache.word_passes);
  EXPECT_EQ(a.def2_cache.verdict_misses, b.def2_cache.verdict_misses);
}

/// Runs the serial engine (num_threads = 1: one worker on the calling
/// thread) and compares hardware-width (0) and 2/8-thread runs against it
/// bit for bit.
void check_thread_invariance(const DetectionDb& db,
                             std::span<const std::size_t> monitored,
                             Procedure1Config config) {
  config.keep_test_sets = true;
  config.num_threads = 1;
  const AverageCaseResult serial = run_procedure1(db, monitored, config);
  for (const unsigned threads : {0u, 2u, 8u}) {
    config.num_threads = threads;
    const AverageCaseResult parallel = run_procedure1(db, monitored, config);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_runs(serial, parallel);
  }
}

TEST(Procedure1Parallel, BitIdenticalAcrossThreadCountsDefinition1) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 24;
  config.seed = 17;
  check_thread_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Parallel, BitIdenticalAcrossThreadCountsDefinition2) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 12;
  config.seed = 23;
  config.definition = DetectionDefinition::kDissimilar;
  check_thread_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Parallel, BitIdenticalOnFsmSuiteDefinition1) {
  for (const char* name : {"bbtas", "dk27", "beecount"}) {
    SCOPED_TRACE(name);
    const DetectionDb db = DetectionDb::build(fsm_benchmark_circuit(name));
    Procedure1Config config;
    config.nmax = 3;
    config.num_sets = 10;
    config.seed = 2005;
    check_thread_invariance(db, all_monitored(db), config);
  }
}

TEST(Procedure1Parallel, BitIdenticalOnFsmSuiteDefinition2) {
  const DetectionDb db = DetectionDb::build(fsm_benchmark_circuit("bbtas"));
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 8;
  config.seed = 2005;
  config.definition = DetectionDefinition::kDissimilar;
  check_thread_invariance(db, all_monitored(db), config);
}

/// SIMD levels that can actually run here (portable always can; vector
/// tiers only when compiled in, supported by the CPU and not overridden
/// away by the environment).
std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels = {simd::Level::kPortable};
  for (const simd::Level level :
       {simd::Level::kAvx2, simd::Level::kAvx512, simd::Level::kNeon})
    if (simd::level_available(level)) levels.push_back(level);
  return levels;
}

/// Pins the fully serial shape (one thread, one set per batch group) on
/// the CURRENT dispatch level as the reference, then demands bit-identical
/// results from every {batch width} x {thread count} x {SIMD level}
/// combination.  This is the acceptance contract of the batched saturation
/// sweep: batching and dispatch are pure performance knobs, and the
/// counter-addressed draws make every trajectory independent of how the
/// work is grouped.
void check_batch_and_level_invariance(const DetectionDb& db,
                                      std::span<const std::size_t> monitored,
                                      Procedure1Config config) {
  const simd::Level original = simd::active_level();
  config.keep_test_sets = true;
  config.num_threads = 1;
  config.batch_width = 1;
  const AverageCaseResult serial = run_procedure1(db, monitored, config);
  for (const simd::Level level : runnable_levels()) {
    simd::set_level_for_testing(level);
    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{0}}) {
      for (const unsigned threads : {1u, 0u, 2u, 8u}) {
        config.batch_width = width;
        config.num_threads = threads;
        const AverageCaseResult run = run_procedure1(db, monitored, config);
        SCOPED_TRACE(std::string("level=") + simd::level_name(level) +
                     " width=" + std::to_string(width) +
                     " threads=" + std::to_string(threads));
        expect_identical_runs(serial, run);
      }
    }
  }
  simd::set_level_for_testing(original);
}

TEST(Procedure1Batched, BitIdenticalAcrossWidthsThreadsAndLevelsDefinition1) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 24;
  config.seed = 31;
  check_batch_and_level_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Batched, BitIdenticalAcrossWidthsThreadsAndLevelsDefinition2) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 12;
  config.seed = 37;
  config.definition = DetectionDefinition::kDissimilar;
  check_batch_and_level_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Batched, BitIdenticalOnFsmCircuit) {
  const DetectionDb db = DetectionDb::build(fsm_benchmark_circuit("bbtas"));
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 8;
  config.seed = 2005;
  check_batch_and_level_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Parallel, Def2LanesCoverEveryChargedQuery) {
  // Every charged oracle query was decided by a simulated kernel lane; the
  // lanes also include pairs past a sequential scan's early exit.
  const DetectionDb& db = paper_db();
  const auto monitored = all_monitored(db);
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 12;
  config.definition = DetectionDefinition::kDissimilar;
  for (const unsigned threads : {0u, 2u, 8u}) {
    config.num_threads = threads;
    const AverageCaseResult result = run_procedure1(db, monitored, config);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_GT(result.stats.distinct_queries, 0u);
    EXPECT_GE(result.def2_cache.verdict_misses, result.stats.distinct_queries);
    EXPECT_EQ(result.def2_cache.verdict_hits, 0u);
    EXPECT_GT(result.def2_cache.word_passes, 0u);
    EXPECT_LE(result.def2_cache.verdict_misses,
              result.def2_cache.word_passes * Def2Oracle::kLanes);
  }
}

TEST(Procedure1Parallel, Definition1LeavesCacheStatsEmpty) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 4;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  EXPECT_EQ(result.def2_cache.word_passes, 0u);
  EXPECT_EQ(result.def2_cache.verdict_hits, 0u);
  EXPECT_EQ(result.def2_cache.verdict_misses, 0u);
}

// --- Escape report ----------------------------------------------------------

TEST(Escape, ComputesExpectedEscapes) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 50;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  const EscapeReport report = compute_escape_report(result, 2);
  EXPECT_EQ(report.monitored_faults, monitored.size());
  EXPECT_GE(report.expected_escapes, 0.0);
  EXPECT_LE(report.expected_escapes, static_cast<double>(monitored.size()));
  EXPECT_GE(report.prob_any_escape, 0.0);
  EXPECT_LE(report.prob_any_escape, 1.0);
  EXPECT_GE(report.worst_fault_probability, 0.0);
  EXPECT_LE(report.worst_fault_probability, 1.0);
  EXPECT_LE(report.guaranteed_detected, monitored.size());
}

TEST(Escape, AllDetectedMeansNoEscapes) {
  // At n = 4 every bridging fault of the example has nmin <= 4, so every
  // 4-detection set detects all of them.
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 30;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result = run_procedure1(db, monitored, config);
  const EscapeReport report = compute_escape_report(result, 4);
  EXPECT_DOUBLE_EQ(report.expected_escapes, 0.0);
  EXPECT_DOUBLE_EQ(report.prob_any_escape, 0.0);
  EXPECT_EQ(report.guaranteed_detected, monitored.size());
}

TEST(Escape, EmptyMonitoredSet) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 1;
  config.num_sets = 3;
  const AverageCaseResult result = run_procedure1(db, {}, config);
  const EscapeReport report = compute_escape_report(result, 1);
  EXPECT_DOUBLE_EQ(report.prob_any_escape, 0.0);
  EXPECT_DOUBLE_EQ(report.expected_escapes, 0.0);
}

}  // namespace
}  // namespace ndet
