// cancel_test.cpp -- cooperative cancellation, deadlines, the typed error
// taxonomy, ThreadPool exception context, and Procedure-1 checkpoint/resume
// bit-identity.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/partition.hpp"
#include "core/procedure1.hpp"
#include "core/session.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- CancelToken semantics --------------------------------------------------

TEST(CancelToken, StartsLiveAndLatchesOnCancel) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_NO_THROW(token.check("stage"));

  token.cancel("stop now");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.kind(), ErrorKind::kCancelled);
  EXPECT_EQ(token.reason(), "stop now");
  // Latching: a fired token never un-fires, and the first reason wins.
  token.cancel("too late");
  EXPECT_EQ(token.reason(), "stop now");
}

TEST(CancelToken, CheckThrowsTypedErrorWithStage) {
  CancelToken token;
  token.cancel("abandon ship");
  try {
    token.check("worst_case");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_EQ(e.stage(), "worst_case");
    EXPECT_TRUE(contains(e.what(), "abandon ship"));
    EXPECT_TRUE(contains(e.what(), "worst_case"));
  }
}

TEST(CancelToken, ExpiredDeadlineLatchesAsDeadlineExceeded) {
  CancelToken token;
  token.set_deadline_after_ms(1);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.kind(), ErrorKind::kDeadlineExceeded);
  EXPECT_LT(token.remaining_seconds(), 0.0);
  EXPECT_THROW(token.check("average_case"), Error);
}

TEST(CancelToken, EarlierDeadlineWins) {
  CancelToken token;
  token.set_deadline_after_ms(60'000);
  EXPECT_GT(token.remaining_seconds(), 1.0);
  token.set_deadline_after_ms(1);  // tightens
  EXPECT_LT(token.remaining_seconds(), 1.0);
  token.set_deadline_after_ms(60'000);  // looser: ignored
  EXPECT_LT(token.remaining_seconds(), 1.0);
}

TEST(CancelToken, ExplicitCancelBeatsLaterDeadline) {
  CancelToken token;
  token.cancel("caller first");
  token.set_deadline_after_ms(0);
  EXPECT_EQ(token.kind(), ErrorKind::kCancelled);
  EXPECT_EQ(token.reason(), "caller first");
}

TEST(CancelToken, NullTokenHelpersAreNoOps) {
  EXPECT_FALSE(is_cancelled(nullptr));
  EXPECT_NO_THROW(check_cancel(nullptr, "anything"));
}

// --- Error taxonomy ---------------------------------------------------------

TEST(ErrorTaxonomy, KindNamesAreStable) {
  EXPECT_STREQ(to_string(ErrorKind::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(ErrorKind::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(ErrorKind::kInvalidInput), "invalid_input");
  EXPECT_STREQ(to_string(ErrorKind::kResourceExhausted), "resource_exhausted");
  EXPECT_STREQ(to_string(ErrorKind::kInternal), "internal");
}

TEST(ErrorTaxonomy, ContractErrorIsInvalidInput) {
  // Every bare throw behind util/check.hpp is now a typed Error, so existing
  // EXPECT_THROW(contract_error) tests and new kind-based handling coexist.
  try {
    require(false, "broken precondition");
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
    EXPECT_TRUE(contains(e.what(), "broken precondition"));
  }
}

TEST(ErrorTaxonomy, ContextAccumulatesAndFirstStageWins) {
  Error e(ErrorKind::kInternal, "boom");
  e.add_context("worker 3, index 17");
  e.attach_stage("fault_sim");
  e.attach_stage("detection_db");  // outer stage: ignored
  EXPECT_EQ(e.stage(), "fault_sim");
  EXPECT_TRUE(contains(e.what(), "boom [worker 3, index 17] [stage fault_sim]"));
}

TEST(ErrorTaxonomy, ExitCodesFollowTheCliContract) {
  EXPECT_EQ(exit_code_for(ErrorKind::kCancelled), kExitTimeout);
  EXPECT_EQ(exit_code_for(ErrorKind::kDeadlineExceeded), kExitTimeout);
  EXPECT_EQ(exit_code_for(ErrorKind::kInvalidInput), kExitInvalidInput);
  EXPECT_EQ(exit_code_for(ErrorKind::kResourceExhausted), kExitInternal);
  EXPECT_EQ(exit_code_for(ErrorKind::kInternal), kExitInternal);
  EXPECT_EQ(kExitTimeout, 124);  // matches timeout(1)
}

// --- ThreadPool: cancellation and exception context -------------------------

TEST(ThreadPoolCancel, PollsBetweenIndexClaims) {
  // Body 0 cancels the token from inside the sweep.  Workers observe the
  // token before claiming the next index, so at most one in-flight body per
  // worker runs after the cancel -- the documented latency bound.
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ThreadPool pool(threads);
    CancelToken token;
    std::atomic<std::size_t> executed{0};
    pool.for_each_index(
        10'000,
        [&](std::size_t, unsigned) {
          executed.fetch_add(1);
          token.cancel("from body");
        },
        &token);
    // The pool itself never throws on cancellation; the caller checks.
    EXPECT_TRUE(token.cancelled());
    EXPECT_LE(executed.load(), static_cast<std::size_t>(threads));
    EXPECT_THROW(check_cancel(&token, "sweep"), Error);
  }
}

TEST(ThreadPoolCancel, CrossThreadCancelStopsTheSweep) {
  // A watcher thread cancels while workers spin inside bodies; every
  // in-flight body unblocks and no further index is claimed.
  const ThreadPool pool(4);
  CancelToken token;
  std::atomic<bool> started{false};
  std::atomic<std::size_t> executed{0};
  std::thread watcher([&] {
    while (!started.load()) std::this_thread::yield();
    token.cancel("watcher");
  });
  pool.for_each_index(
      100'000,
      [&](std::size_t, unsigned) {
        executed.fetch_add(1);
        started.store(true);
        while (!token.cancelled()) std::this_thread::yield();
      },
      &token);
  watcher.join();
  EXPECT_LE(executed.load(), 4u);
  EXPECT_EQ(token.kind(), ErrorKind::kCancelled);
}

TEST(ThreadPoolCancel, PreFiredTokenRunsNothing) {
  const ThreadPool pool(8);
  CancelToken token;
  token.cancel();
  std::atomic<std::size_t> executed{0};
  pool.for_each_index(
      1'000, [&](std::size_t, unsigned) { executed.fetch_add(1); }, &token);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ThreadPoolErrors, ThrowAtIndexZeroKeepsTypeAndContext) {
  // The regression this satellite demands: a throw at index 0 with 8 threads
  // never hangs, never loses the message, and arrives annotated with the
  // worker id and failing index -- without losing the dynamic type, so the
  // repository's EXPECT_THROW(contract_error) contracts keep holding.
  const ThreadPool pool(8);
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.for_each_index(256, [](std::size_t i, unsigned) {
        if (i == 0) throw contract_error("boom at zero");
      });
      FAIL() << "expected contract_error";
    } catch (const contract_error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
      EXPECT_TRUE(contains(e.what(), "boom at zero"));
      EXPECT_TRUE(contains(e.what(), "index 0"));
      EXPECT_TRUE(contains(e.what(), "worker "));
    }
  }
}

TEST(ThreadPoolErrors, ForeignExceptionsWrapAsInternal) {
  const ThreadPool pool(2);
  try {
    pool.for_each_index(8, [](std::size_t i, unsigned) {
      if (i == 3) throw std::runtime_error("plain failure");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    EXPECT_TRUE(contains(e.what(), "plain failure"));
    EXPECT_TRUE(contains(e.what(), "index 3"));
  }
}

// --- Stage-attributed deadline/cancel errors --------------------------------

void expire(CancelToken& token) {
  token.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(token.cancelled());
}

TEST(StageErrors, EveryStageNamesItselfOnDeadline) {
  // An expired deadline aborts each stage at its entry poll with
  // Error{kDeadlineExceeded} carrying that stage's name, at every thread
  // count of the shared pool.
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ThreadPool pool(threads);
    const DetectionDb db = DetectionDb::build(circuit, {}, pool);
    std::vector<std::size_t> all(db.untargeted().size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    Procedure1Config config;
    config.nmax = 2;
    config.num_sets = 4;

    const auto expect_stage = [&](const char* stage, const auto& call) {
      try {
        call();
        FAIL() << stage << ": expected Error";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << stage;
        EXPECT_EQ(e.stage(), stage);
        EXPECT_TRUE(contains(e.what(), std::string("stage ") + stage));
      }
    };

    CancelToken db_token;
    expire(db_token);
    expect_stage("detection_db", [&] {
      (void)DetectionDb::build(circuit, {}, pool, &db_token);
    });
    CancelToken worst_token;
    expire(worst_token);
    expect_stage("worst_case",
                 [&] { (void)analyze_worst_case(db, pool, &worst_token); });
    CancelToken avg_token;
    expire(avg_token);
    expect_stage("average_case", [&] {
      (void)run_procedure1(db, all, config, pool, &avg_token);
    });
    CancelToken part_token;
    expire(part_token);
    expect_stage("partitioned", [&] {
      (void)partitioned_worst_case(circuit, PartitionOptions{}, pool,
                                   &part_token);
    });
  }
}

TEST(StageErrors, SessionDeadlineAbortsWithTelemetry) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionOptions options;
    options.num_threads = threads;
    options.deadline_ms = 1;
    AnalysisSession session(fsm_benchmark_circuit("bbtas"), options);
    ASSERT_NE(session.cancel(), nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    try {
      (void)session.worst_case();
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded);
      EXPECT_FALSE(e.stage().empty());
    }
    const SessionStats stats = session.stats();
    EXPECT_EQ(stats.deadline_ms, 1u);
    EXPECT_FALSE(stats.aborted_stage.empty());
    EXPECT_EQ(stats.abort_kind, "deadline_exceeded");
  }
}

TEST(StageErrors, TenPercentDeadlineAbortsWellUnderRuntime) {
  // The acceptance bar: a deadline at ~10% of the normal runtime aborts the
  // session with a stage-attributed kDeadlineExceeded in well under the
  // uninterrupted runtime, at every thread count.  keyb's pipeline runs
  // hundreds of milliseconds, so the 10% deadline lands mid-sweep.
  const Circuit circuit = fsm_benchmark_circuit("keyb");
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point start) {
    return std::chrono::duration<double, std::milli>(clock::now() - start)
        .count();
  };
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto full_start = clock::now();
    {
      AnalysisSession full(circuit, {.num_threads = threads});
      (void)full.worst_case();
    }
    const double full_ms = ms_since(full_start);

    AnalysisSession bounded(
        circuit,
        {.num_threads = threads,
         .deadline_ms = std::max<std::uint64_t>(
             1, static_cast<std::uint64_t>(full_ms / 10.0))});
    const auto bounded_start = clock::now();
    try {
      (void)bounded.worst_case();
      FAIL() << "expected Error (full run took " << full_ms << " ms)";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded);
      EXPECT_FALSE(e.stage().empty());
    }
    EXPECT_LT(ms_since(bounded_start), full_ms * 0.75);
  }
}

TEST(StageErrors, CallerTokenCancelsAcrossThreads) {
  // The caller's shared token, cancelled from another thread, aborts the
  // session's next stage as kCancelled with the caller's reason.
  SessionOptions options;
  options.num_threads = 4;
  options.cancel_token = std::make_shared<CancelToken>();
  AnalysisSession session(fsm_benchmark_circuit("dk27"), options);
  std::thread canceller(
      [token = options.cancel_token] { token->cancel("operator abort"); });
  canceller.join();
  try {
    (void)session.db();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_TRUE(contains(e.what(), "operator abort"));
    EXPECT_FALSE(e.stage().empty());
  }
  EXPECT_EQ(session.stats().abort_kind, "cancelled");
}

TEST(StageErrors, RunBatchSurfacesPreCancelledToken) {
  SessionOptions options;
  options.num_threads = 2;
  options.cancel_token = std::make_shared<CancelToken>();
  options.cancel_token->cancel("batch abort");
  const std::vector<SessionRequest> requests{{"paper_example", {}},
                                             {"bbtas", {}}};
  try {
    (void)run_batch(requests, options);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_FALSE(e.stage().empty());
  }
}

// --- Zero-overhead path -----------------------------------------------------

TEST(ZeroOverhead, LiveTokenChangesNoResult) {
  // A token that never fires must be invisible: bit-identical results with a
  // null token, a live token, and a live armed deadline far in the future.
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  const ThreadPool pool(4);
  const DetectionDb db = DetectionDb::build(circuit, {}, pool);
  const WorstCaseResult base = analyze_worst_case(db, pool, nullptr);

  CancelToken live;
  EXPECT_EQ(analyze_worst_case(db, pool, &live).nmin, base.nmin);
  CancelToken armed;
  armed.set_deadline_after_ms(3'600'000);
  EXPECT_EQ(analyze_worst_case(db, pool, &armed).nmin, base.nmin);
  EXPECT_FALSE(live.cancelled());
  EXPECT_FALSE(armed.cancelled());

  // Default session options take the zero-overhead path outright.
  EXPECT_EQ(AnalysisSession(circuit).cancel(), nullptr);
}

// --- Procedure 1: checkpoint / resume ---------------------------------------

void expect_identical_average(const AverageCaseResult& a,
                              const AverageCaseResult& b) {
  EXPECT_EQ(a.monitored, b.monitored);
  EXPECT_EQ(a.detect_count, b.detect_count);
  EXPECT_EQ(a.set_sizes, b.set_sizes);
  EXPECT_EQ(a.test_sets, b.test_sets);
  EXPECT_EQ(a.stats.tests_added, b.stats.tests_added);
  EXPECT_EQ(a.stats.def1_fallbacks, b.stats.def1_fallbacks);
  EXPECT_EQ(a.stats.distinct_queries, b.stats.distinct_queries);
  // def2_cache is deliberately excluded: a resumed run counts only the
  // kernel work done after the resume.
}

Procedure1Config resume_config(DetectionDefinition definition) {
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 24;
  config.seed = 2005;
  config.definition = definition;
  config.keep_test_sets = true;
  return config;
}

/// Drives a run to completion through repeated short-deadline interruptions,
/// hopping between thread counts and batch widths across the cycles (both
/// are performance knobs on either side of a checkpoint).  The growing
/// deadline guarantees termination on any machine; how many interruptions
/// actually land is timing-dependent and irrelevant to the bit-identity
/// being asserted.
AverageCaseResult run_with_interruptions(const DetectionDb& db,
                                         std::span<const std::size_t> monitored,
                                         const Procedure1Config& config,
                                         int* interruptions) {
  const unsigned thread_plan[] = {1, 8, 2};
  const std::size_t width_plan[] = {1, 0, 3};
  Procedure1Checkpoint saved;
  bool have_checkpoint = false;
  for (int cycle = 0;; ++cycle) {
    Procedure1Config cfg = config;
    cfg.batch_width = width_plan[cycle % 3];
    const ThreadPool pool(thread_plan[cycle % 3]);
    CancelToken token;
    token.set_deadline_after_ms(1 + static_cast<std::uint64_t>(cycle) * 2);
    Procedure1Partial partial = run_procedure1_resumable(
        db, monitored, cfg, pool, &token, have_checkpoint ? &saved : nullptr);
    if (partial.complete) {
      if (interruptions) *interruptions = cycle;
      return partial.result;
    }
    saved = std::move(partial.checkpoint);
    have_checkpoint = true;
  }
}

TEST(Procedure1Resume, InterruptedRunsAreBitIdentical) {
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  const ThreadPool pool(1);
  const DetectionDb db = DetectionDb::build(circuit, {}, pool);
  std::vector<std::size_t> all(db.untargeted().size());
  std::iota(all.begin(), all.end(), std::size_t{0});

  for (const auto definition :
       {DetectionDefinition::kStandard, DetectionDefinition::kDissimilar}) {
    SCOPED_TRACE(definition == DetectionDefinition::kStandard ? "def1"
                                                              : "def2");
    const Procedure1Config config = resume_config(definition);
    const AverageCaseResult uninterrupted =
        run_procedure1(db, all, config, pool);
    int interruptions = 0;
    const AverageCaseResult resumed =
        run_with_interruptions(db, all, config, &interruptions);
    expect_identical_average(resumed, uninterrupted);
  }
}

TEST(Procedure1Resume, PreFiredTokenCheckpointsAtIterationZero) {
  const Circuit circuit = fsm_benchmark_circuit("dk27");
  const DetectionDb db = DetectionDb::build(circuit, {}, ThreadPool(2));
  std::vector<std::size_t> all(db.untargeted().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const Procedure1Config config = resume_config(DetectionDefinition::kStandard);

  CancelToken fired;
  fired.cancel();
  const ThreadPool pool8(8);
  Procedure1Partial partial =
      run_procedure1_resumable(db, all, config, pool8, &fired);
  ASSERT_FALSE(partial.complete);
  ASSERT_EQ(partial.checkpoint.sets.size(), config.num_sets);
  for (const Procedure1SetFrontier& frontier : partial.checkpoint.sets)
    EXPECT_EQ(frontier.completed_n, 0);

  // Resuming under a different thread count and batch width reproduces the
  // uninterrupted run exactly.
  const ThreadPool pool1(1);
  Procedure1Config narrow = config;
  narrow.batch_width = 1;
  const Procedure1Partial finished = run_procedure1_resumable(
      db, all, narrow, pool1, nullptr, &partial.checkpoint);
  ASSERT_TRUE(finished.complete);
  expect_identical_average(finished.result,
                           run_procedure1(db, all, config, pool1));
}

TEST(Procedure1Resume, NonResumableVariantThrowsOnCancel) {
  const Circuit circuit = paper_example();
  const ThreadPool pool(2);
  const DetectionDb db = DetectionDb::build(circuit, {}, pool);
  std::vector<std::size_t> all(db.untargeted().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  CancelToken fired;
  fired.cancel("no partials wanted");
  try {
    (void)run_procedure1(
        db, all, resume_config(DetectionDefinition::kStandard), pool, &fired);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_EQ(e.stage(), "average_case");
  }
}

TEST(Procedure1Resume, ValidatesTheCheckpoint) {
  const Circuit circuit = paper_example();
  const ThreadPool pool(2);
  const DetectionDb db = DetectionDb::build(circuit, {}, pool);
  std::vector<std::size_t> all(db.untargeted().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const Procedure1Config config = resume_config(DetectionDefinition::kStandard);

  CancelToken fired;
  fired.cancel();
  Procedure1Partial partial =
      run_procedure1_resumable(db, all, config, pool, &fired);
  ASSERT_FALSE(partial.complete);

  const auto expect_invalid = [&](const Procedure1Config& cfg,
                                  std::span<const std::size_t> monitored,
                                  const Procedure1Checkpoint& checkpoint) {
    try {
      (void)run_procedure1_resumable(db, monitored, cfg, pool, nullptr,
                                     &checkpoint);
      FAIL() << "expected Error{kInvalidInput}";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
    }
  };

  Procedure1Config other_seed = config;
  other_seed.seed = 7;
  expect_invalid(other_seed, all, partial.checkpoint);

  Procedure1Config other_nmax = config;
  other_nmax.nmax = config.nmax + 1;
  expect_invalid(other_nmax, all, partial.checkpoint);

  std::vector<std::size_t> fewer(all.begin(), all.end() - 1);
  expect_invalid(config, fewer, partial.checkpoint);

  Procedure1Checkpoint truncated = partial.checkpoint;
  truncated.sets.pop_back();
  expect_invalid(config, all, truncated);
}

}  // namespace
}  // namespace ndet
