// session_test.cpp -- the AnalysisSession facade: bit-identity with the
// direct stage calls at every thread count, memoization (same object back,
// no recompute, no collisions between distinct requests), batch serving,
// and the JSON exports behind --json=.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/reports.hpp"
#include "core/session.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "test_util.hpp"
#include "util/json.hpp"

namespace ndet {
namespace {

Procedure1Request small_request() {
  Procedure1Request request;
  request.nmax = 3;
  request.num_sets = 12;
  request.seed = 2005;
  request.keep_test_sets = true;
  return request;
}

/// The full bit-identity contract between a session's average-case result
/// and a direct run_procedure1 call with the same parameters.
void expect_identical_average(const AverageCaseResult& a,
                              const AverageCaseResult& b) {
  EXPECT_EQ(a.monitored, b.monitored);
  EXPECT_EQ(a.detect_count, b.detect_count);
  EXPECT_EQ(a.set_sizes, b.set_sizes);
  EXPECT_EQ(a.test_sets, b.test_sets);
  EXPECT_EQ(a.stats.tests_added, b.stats.tests_added);
  EXPECT_EQ(a.stats.def1_fallbacks, b.stats.def1_fallbacks);
  EXPECT_EQ(a.stats.distinct_queries, b.stats.distinct_queries);
}

TEST(AnalysisSession, BitIdenticalToDirectCallsAcrossThreadCounts) {
  // The reference pipeline, chained by hand the way the session does
  // internally (this test and session.cpp are the sanctioned call sites).
  for (const char* name : {"bbtas", "dk27"}) {
    SCOPED_TRACE(name);
    const Circuit circuit = fsm_benchmark_circuit(name);
    const DetectionDb db = DetectionDb::build(circuit, {.num_threads = 1});
    const WorstCaseResult worst = analyze_worst_case(db, {.num_threads = 1});

    Procedure1Request request = small_request();
    std::vector<std::size_t> all(db.untargeted().size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    request.monitored = all;
    Procedure1Config config;
    config.nmax = request.nmax;
    config.num_sets = request.num_sets;
    config.seed = request.seed;
    config.keep_test_sets = request.keep_test_sets;
    config.num_threads = 1;
    const AverageCaseResult avg = run_procedure1(db, all, config);

    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      AnalysisSession session(circuit, {.num_threads = threads});
      EXPECT_EQ(session.worst_case().nmin, worst.nmin);
      EXPECT_EQ(session.db().set_memory_bytes(), db.set_memory_bytes());
      expect_identical_average(session.average_case(request), avg);
    }
  }
}

TEST(AnalysisSession, ResolvesCircuitNamesLikeTheClis) {
  AnalysisSession by_name("bbtas");
  AnalysisSession by_circuit(fsm_benchmark_circuit("bbtas"));
  EXPECT_EQ(by_name.worst_case().nmin, by_circuit.worst_case().nmin);
}

TEST(AnalysisSession, MemoizedStagesReturnTheSameObject) {
  AnalysisSession session(paper_example());
  const DetectionDb* db = &session.db();
  const WorstCaseResult* worst = &session.worst_case();
  const auto monitored = session.monitored(2);
  const Procedure1Request request = small_request();
  const AverageCaseResult* avg = &session.average_case(request);

  // Repeats are served from the memo: identical addresses, hit counters up.
  EXPECT_EQ(&session.db(), db);
  EXPECT_EQ(&session.worst_case(), worst);
  EXPECT_EQ(session.monitored(2).data(), monitored.data());
  EXPECT_EQ(&session.average_case(request), avg);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.db_hits, 1u);
  EXPECT_EQ(stats.worst_case_hits, 1u);
  EXPECT_EQ(stats.monitored_hits, 1u);
  EXPECT_EQ(stats.average_case_hits, 1u);
  EXPECT_EQ(stats.average_case_entries, 1u);
  EXPECT_GT(stats.set_memory_bytes, 0u);
}

TEST(AnalysisSession, DistinctRequestsDoNotCollide) {
  AnalysisSession session(paper_example());
  const Procedure1Request base = small_request();

  Procedure1Request other_seed = base;
  other_seed.seed = 7;
  Procedure1Request other_k = base;
  other_k.num_sets = 5;
  Procedure1Request other_def = base;
  other_def.definition = DetectionDefinition::kDissimilar;

  const AverageCaseResult* a = &session.average_case(base);
  const AverageCaseResult* b = &session.average_case(other_seed);
  const AverageCaseResult* c = &session.average_case(other_k);
  const AverageCaseResult* d = &session.average_case(other_def);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(a->test_sets, b->test_sets);
  EXPECT_EQ(c->config.num_sets, 5u);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.average_case_entries, 4u);
  EXPECT_EQ(stats.average_case_hits, 0u);
  // The distinct requests all reused the one frozen database.
  EXPECT_EQ(stats.db_hits + stats.worst_case_hits, 0u);
  EXPECT_GT(stats.average_case_seconds, 0.0);
}

TEST(AnalysisSession, MonitoredMatchesWorstCaseTail) {
  AnalysisSession session(paper_example());
  const auto monitored = session.monitored(2);
  const auto direct = session.worst_case().indices_at_least(3);
  EXPECT_EQ(std::vector<std::size_t>(monitored.begin(), monitored.end()),
            direct);
  // A derived request uses exactly that tail.
  Procedure1Request request = small_request();
  request.nmax = 2;
  EXPECT_EQ(session.average_case(request).monitored, direct);
}

TEST(AnalysisSession, StatsReportTheDistinctSetsTheSweepServed) {
  AnalysisSession session(fsm_benchmark_circuit("dk27"));
  EXPECT_EQ(session.stats().worst_case_distinct, 0u);
  const WorstCaseResult& worst = session.worst_case();
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.worst_case_distinct, worst.distinct_sets);
  EXPECT_GT(worst.distinct_sets, 0u);
  EXPECT_LT(worst.distinct_sets, worst.nmin.size());  // dk27 shares sets
  EXPECT_NE(to_json(stats).find("\"worst_case_distinct\":" +
                                std::to_string(worst.distinct_sets)),
            std::string::npos);
  // Telemetry only: the result's wire form does not carry it.
  EXPECT_EQ(to_json(worst).find("distinct"), std::string::npos);
}

TEST(AnalysisSession, PartitionedMatchesDirectCall) {
  const Circuit circuit = ripple_adder(3);
  AnalysisSession session(circuit, {.num_threads = 2});
  const auto& reports = session.partitioned(7);
  const auto direct = partitioned_worst_case(circuit, 7, {.num_threads = 1});
  ASSERT_EQ(reports.size(), direct.size());
  for (std::size_t c = 0; c < reports.size(); ++c) {
    EXPECT_EQ(reports[c].cone_name, direct[c].cone_name);
    EXPECT_EQ(reports[c].untargeted_faults, direct[c].untargeted_faults);
    EXPECT_EQ(reports[c].max_finite_nmin, direct[c].max_finite_nmin);
  }
  EXPECT_EQ(&session.partitioned(7), &reports);
  EXPECT_EQ(session.stats().partitioned_hits, 1u);
}

std::string cones_json(const std::vector<ConeReport>& reports) {
  std::string json = "[";
  for (const ConeReport& report : reports) {
    if (json.size() > 1) json += ",";
    json += to_json(report);
  }
  return json + "]";
}

/// Structure mode with the whole circuit's input count as the budget (the
/// perf harness's request).
PartitionOptions structure_partition(const Circuit& circuit) {
  return {.max_inputs = circuit.input_count(), .by_structure = true};
}

TEST(AnalysisSession, PartitionedReusesWholeCircuitAnalysis) {
  const ThreadPool serial(1);
  struct Case {
    Circuit circuit;
    PartitionOptions request;
    int session_max_inputs;
    std::size_t reused;  ///< expected partitioned_reused after the call
  };
  const Circuit dk27 = fsm_benchmark_circuit("dk27");
  const Circuit mc = fsm_benchmark_circuit("mc");
  const Circuit lion = fsm_benchmark_circuit("lion");
  const Circuit tav = fsm_benchmark_circuit("tav");
  const std::vector<Case> cases = {
      // Whole-circuit cones: answered from the session's memo.
      {dk27, structure_partition(dk27), 20, 1},
      {mc, structure_partition(mc), 20, 1},
      {ripple_adder(3), {.max_inputs = 7}, 20, 1},
      // Dead gates and an unused input: the cone differs from the circuit.
      {lion, structure_partition(lion), 20, 0},
      {tav, structure_partition(tav), 20, 0},
      // Several cones.
      {testing::tri_majority(), {.max_inputs = 3}, 20, 0},
      // The session could not build its own database: fall back.
      {dk27, structure_partition(dk27),
       static_cast<int>(dk27.input_count()) - 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.circuit.name() + " max_inputs=" +
                 std::to_string(c.session_max_inputs));
    const std::string direct =
        cones_json(partitioned_worst_case(c.circuit, c.request, serial));
    for (const SetRepresentation representation :
         {SetRepresentation::kAdaptive, SetRepresentation::kDense,
          SetRepresentation::kSparse}) {
      AnalysisSession session(c.circuit,
                              {.max_inputs = c.session_max_inputs,
                               .num_threads = 1,
                               .representation = representation});
      EXPECT_EQ(cones_json(session.partitioned(c.request)), direct);
      const SessionStats stats = session.stats();
      EXPECT_EQ(stats.partitioned_reused, c.reused);
      EXPECT_NE(to_json(stats).find("\"partitioned_reused\":" +
                                    std::to_string(c.reused)),
                std::string::npos);
      if (c.reused == 0) {
        // No session database was built on the cone path.
        EXPECT_EQ(stats.set_memory_bytes, 0u);
        EXPECT_EQ(stats.db_seconds, 0.0);
      }
    }
  }

  // The reused analysis is the session's own memo: worst_case() after
  // partitioned() is a hit, and the build time is charged once, to the db
  // and worst-case stages.
  AnalysisSession fresh(dk27, {.num_threads = 1});
  const auto start = std::chrono::steady_clock::now();
  const auto& reports = fresh.partitioned(structure_partition(dk27));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports.front().untargeted_faults, fresh.db().untargeted().size());
  (void)fresh.worst_case();
  SessionStats stats = fresh.stats();
  EXPECT_EQ(stats.worst_case_hits, 1u);
  EXPECT_EQ(stats.db_hits, 1u);
  EXPECT_EQ(stats.partitioned_reused, 1u);
  EXPECT_GT(stats.db_seconds, 0.0);
  EXPECT_GT(stats.worst_case_seconds, 0.0);
  EXPECT_GE(stats.partitioned_seconds, 0.0);
  // Additive: the three stage times are disjoint parts of the one call.
  EXPECT_LE(stats.db_seconds + stats.worst_case_seconds +
                stats.partitioned_seconds,
            wall);
  // A memo hit on the request is not a second reuse.
  EXPECT_EQ(&fresh.partitioned(structure_partition(dk27)), &reports);
  stats = fresh.stats();
  EXPECT_EQ(stats.partitioned_hits, 1u);
  EXPECT_EQ(stats.partitioned_reused, 1u);

  // A token fired before the call aborts both paths in stage "partitioned".
  for (const char* name : {"dk27", "lion"}) {
    SCOPED_TRACE(name);
    auto token = std::make_shared<CancelToken>();
    AnalysisSession session(fsm_benchmark_circuit(name),
                            {.num_threads = 1, .cancel_token = token});
    token->cancel();
    try {
      (void)session.partitioned(structure_partition(session.circuit()));
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
      EXPECT_EQ(e.stage(), "partitioned");
    }
    EXPECT_EQ(session.stats().aborted_stage, "partitioned");
    EXPECT_EQ(session.stats().partitioned_reused, 0u);
  }
}

TEST(RunBatch, MatchesPerCircuitSerialRuns) {
  const Procedure1Request request = small_request();
  std::vector<SessionRequest> requests;
  for (const char* name : {"bbtas", "dk27", "paper_example"})
    requests.push_back({name, {request}});

  std::vector<AnalysisSession> batch = run_batch(requests, {.num_threads = 8});
  ASSERT_EQ(batch.size(), requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(requests[i].circuit);
    AnalysisSession serial(requests[i].circuit, {.num_threads = 1});
    EXPECT_EQ(batch[i].worst_case().nmin, serial.worst_case().nmin);
    const auto tail = serial.monitored(request.nmax);
    if (tail.empty()) {
      // The batch skips derived requests with nothing to estimate.
      EXPECT_EQ(batch[i].stats().average_case_entries, 0u);
    } else {
      expect_identical_average(batch[i].average_case(request),
                               serial.average_case(request));
      // The batch already ran this request; the query above was a memo hit.
      EXPECT_EQ(batch[i].stats().average_case_hits, 1u);
    }
  }
}

TEST(RunBatch, EmptyRequestListIsFine) {
  EXPECT_TRUE(run_batch({}, {}).empty());
}

TEST(RunBatch, ExpiredRequestDoesNotCancelNeighbors) {
  // The daemon path: one request carries its own already-fired token; only
  // that request aborts, the rest of the batch completes in full.
  std::vector<SessionRequest> requests;
  requests.push_back({"bbtas", {small_request()}});
  SessionRequest doomed;
  doomed.circuit = "dk27";
  doomed.cancel_token = std::make_shared<CancelToken>();
  doomed.cancel_token->cancel("per-request cancel");
  requests.push_back(doomed);
  requests.push_back({"paper_example", {small_request()}});

  std::vector<AnalysisSession> batch = run_batch(requests, {.num_threads = 4});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].stats().abort_kind, "cancelled");
  EXPECT_FALSE(batch[1].stats().aborted_stage.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(requests[i].circuit);
    EXPECT_TRUE(batch[i].stats().aborted_stage.empty());
    AnalysisSession serial(requests[i].circuit, {.num_threads = 1});
    EXPECT_EQ(batch[i].worst_case().nmin, serial.worst_case().nmin);
  }
}

TEST(RunBatch, PerRequestDeadlineChainsUnderBatchToken) {
  // A batch-wide cancel must still reach a request that brought its own
  // deadline (the per-request token chains under the batch token).
  auto batch_token = std::make_shared<CancelToken>();
  batch_token->cancel("batch-wide cancel");
  std::vector<SessionRequest> requests;
  SessionRequest own_deadline;
  own_deadline.circuit = "bbtas";
  own_deadline.deadline_ms = 60'000;  // generous; the batch cancel wins
  requests.push_back(own_deadline);

  SessionOptions options;
  options.num_threads = 2;
  options.cancel_token = batch_token;
  EXPECT_THROW((void)run_batch(requests, options), Error);
}

// --- Thread-count convention ------------------------------------------------

TEST(ThreadConvention, ZeroMeansAllHardwareEverywhere) {
  // The repository-wide convention after the unification: 0 resolves to
  // every hardware thread in every option struct, including Procedure1Config
  // (whose default used to be hardware_concurrency directly).
  EXPECT_EQ(Procedure1Config{}.num_threads, 0u);
  EXPECT_EQ(DetectionDbOptions{}.num_threads, 0u);
  EXPECT_EQ(AnalysisOptions{}.num_threads, 0u);
  EXPECT_EQ(SessionOptions{}.num_threads, 0u);
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(ThreadPool(0).thread_count(), resolve_thread_count(0));
}

// --- JSON exports -----------------------------------------------------------

/// Minimal structural validity check: balanced braces/brackets outside
/// strings.  (CI additionally parses the CLI outputs with python3 -m
/// json.tool.)
void expect_balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Json, WriterProducesValidDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\"\nstring\t\x01");
  w.key("pi").value(3.25);
  w.key("count").value(std::uint64_t{42});
  w.key("negative").value(-7);
  w.key("flag").value(true);
  w.key("missing").null();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("nested").raw("{\"x\":1}");
  w.end_object();
  const std::string json = w.str();
  EXPECT_EQ(json,
            "{\"name\":\"a \\\"quoted\\\"\\nstring\\t\\u0001\",\"pi\":3.25,"
            "\"count\":42,\"negative\":-7,\"flag\":true,\"missing\":null,"
            "\"list\":[1,2],\"nested\":{\"x\":1}}");
  expect_balanced_json(json);
}

TEST(Json, WriterRejectsUnbalancedDocuments) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW((void)w.str(), contract_error);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, ResultAndRowExportsAreBalanced) {
  AnalysisSession session(paper_example());
  const WorstCaseResult& worst = session.worst_case();
  const std::string worst_json = to_json(worst);
  expect_balanced_json(worst_json);
  EXPECT_NE(worst_json.find("\"nmin\":[3,3,3,3,1,4,4,1,1,1]"),
            std::string::npos);

  const AverageCaseResult& avg = session.average_case(small_request());
  expect_balanced_json(to_json(avg));
  expect_balanced_json(to_json(session.stats()));

  const Table2Row t2 = make_table2_row("paper_example", worst);
  const Table3Row t3 = make_table3_row("paper_example", worst);
  const ProbabilityRow t5 = make_probability_row("paper_example", avg, 3);
  expect_balanced_json(to_json(t2));
  expect_balanced_json(to_json(t3));
  expect_balanced_json(to_json(t5));
  expect_balanced_json(to_json(std::vector<Table2Row>{t2, t2}));
  expect_balanced_json(to_json(std::vector<Table3Row>{t3}));
  expect_balanced_json(to_json(std::vector<ProbabilityRow>{t5}));
  EXPECT_NE(to_json(t2).find("\"circuit\":\"paper_example\""),
            std::string::npos);
}

TEST(Json, NeverGuaranteedSerializesAsNull) {
  WorstCaseResult worst;
  worst.nmin = {1, kNeverGuaranteed, 3};
  const std::string json = to_json(worst);
  EXPECT_NE(json.find("\"nmin\":[1,null,3]"), std::string::npos);
  EXPECT_NE(json.find("\"never_guaranteed\":1"), std::string::npos);
}

TEST(Json, WriteJsonFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/ndet_session_test.json";
  write_json_file(path, "{\"a\":1}");
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"a\":1}\n");
  EXPECT_THROW(write_json_file("/nonexistent-dir/x.json", "{}"),
               contract_error);
}

}  // namespace
}  // namespace ndet
