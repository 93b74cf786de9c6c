// perf_kernels.cpp -- google-benchmark timings of every kernel the
// reproduction relies on: the small-operand popcount, exhaustive
// simulation, stuck-at and bridging detection sets, the worst-case nmin
// sweep (reference vs the pruned parallel engine, with the database memory
// footprint and the distinct sets swept as counters), the partitioned
// analysis, Procedure 1 under both definitions, the Definition-2 oracle,
// and PODEM.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "atpg/ndetect.hpp"
#include "atpg/podem.hpp"
#include "common.hpp"
#include "core/partition.hpp"
#include "core/pair_kernels.hpp"
#include "core/procedure1.hpp"
#include "core/session.hpp"
#include "core/worst_case.hpp"
#include "faults/stuck_at.hpp"
#include "fsm/benchmarks.hpp"
#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/ternary_sim.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace ndet;

const Circuit& bench_circuit() {
  static const Circuit circuit = fsm_benchmark_circuit("bbara");
  return circuit;
}

const DetectionDb& bench_db() {
  static const DetectionDb db = DetectionDb::build(bench_circuit());
  return db;
}

const DetectionDb& bench_db_dense() {
  static const DetectionDb db = [] {
    DetectionDbOptions options;
    options.representation = SetRepresentation::kDense;
    return DetectionDb::build(bench_circuit(), options);
  }();
  return db;
}

/// `blocks` independent 3-bit ripple adders in one netlist: the Section-4
/// partitioning workload.  Output supports are disjoint per block, so a
/// 7-input budget splits the circuit into exactly `blocks` cones.
Circuit multi_adder_circuit(int blocks) {
  CircuitBuilder b("multi_adder" + std::to_string(blocks));
  for (int k = 0; k < blocks; ++k) {
    const std::string blk = "k" + std::to_string(k) + "_";
    std::vector<GateId> a, bb;
    for (int i = 0; i < 3; ++i)
      a.push_back(b.add_input(blk + "a" + std::to_string(i)));
    for (int i = 0; i < 3; ++i)
      bb.push_back(b.add_input(blk + "b" + std::to_string(i)));
    GateId carry = b.add_input(blk + "cin");
    for (int i = 0; i < 3; ++i) {
      const std::string s = blk + std::to_string(i);
      const auto idx = static_cast<std::size_t>(i);
      const GateId axb = b.add_gate(GateType::kXor, "axb" + s, {a[idx], bb[idx]});
      const GateId sum = b.add_gate(GateType::kXor, "s" + s, {axb, carry});
      const GateId maj1 = b.add_gate(GateType::kAnd, "cab" + s, {a[idx], bb[idx]});
      const GateId maj2 = b.add_gate(GateType::kAnd, "cx" + s, {axb, carry});
      carry = b.add_gate(GateType::kOr, "c" + s, {maj1, maj2});
      b.mark_output(sum);
    }
    b.mark_output(carry);
  }
  return b.build();
}

// The inline small-operand AND-popcount at 1, 2 and 4 words, the universe
// widths of the suite's small circuits: one call per row pair over 4096
// pairs, as the database build counts bridges.  The label is the dispatch
// level: the wrapper runs its own loop on portable and calls the table's
// POPCNT-built kernel on the x86 vector levels.
void BM_SmallAndPopcount(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPairs = 4096;
  Rng rng(7);
  std::vector<simd::word> a(kPairs * n), b(kPairs * n);
  for (simd::word& w : a) w = rng.next();
  for (simd::word& w : b) w = rng.next();
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t p = 0; p < kPairs; ++p)
      total += simd::and_popcount(a.data() + p * n, b.data() + p * n, n);
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(simd::level_name(simd::active_level()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
}
BENCHMARK(BM_SmallAndPopcount)->Arg(1)->Arg(2)->Arg(4);

void BM_ExhaustiveSimulation(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  for (auto _ : state) {
    const ExhaustiveSimulator sim(c);
    benchmark::DoNotOptimize(sim.good_word(static_cast<GateId>(c.gate_count() - 1), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.vector_space_size()));
}
BENCHMARK(BM_ExhaustiveSimulation);

// The production engine per fault kind, on one worker so the rows measure
// the observability-factored kernel rather than the thread count.
void BM_StuckAtDetectionSets(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const BatchFaultSimulator fsim(sim, lines, {.num_threads = 1});
  const auto faults = collapse_stuck_at_faults(lines);
  for (auto _ : state) {
    const auto sets = fsim.detection_sets(faults);
    benchmark::DoNotOptimize(sets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_StuckAtDetectionSets);

// Every T(g) of the factored database materialized into one row (two
// word-ANDs over stored Obs and good-value rows) and counted: the per-member
// cost the worst-case sweep pays before its tile pass.
void BM_BridgingDetectionSets(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  const DetectionDb::UntargetedSets sets = db.untargeted_sets();
  Bitset row(static_cast<std::size_t>(db.vector_count()));
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      sets.materialize(j, {row.words(), row.word_count()});
      total += row.count();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sets.size()));
}
BENCHMARK(BM_BridgingDetectionSets);

/// The stem of every gate some enumerated bridge names: the sites whose Obs
/// rows DetectionDb::build stores for G.
std::vector<LineId> bridging_sites(const LineModel& lines,
                                   const std::vector<BridgingFault>& bridges) {
  std::vector<bool> used(lines.circuit().gate_count(), false);
  for (const BridgingFault& fault : bridges)
    used[fault.victim] = used[fault.aggressor] = true;
  std::vector<LineId> sites;
  for (GateId g = 0; g < used.size(); ++g)
    if (used[g]) sites.push_back(lines.stem_of(g));
  return sites;
}

// The fault simulation behind DetectionDb::build: every stuck-at set and
// the information for every bridging set.  The Reference variant is the
// per-fault baseline, one injected set per fault; the Batched variant runs
// the factored engine -- stuck-at sets plus one Obs row per bridging site,
// from which the database derives every T(g) -- and takes a worker-pool
// width (0 = all hardware threads), so Batched/1 isolates the per-site
// factoring, precomputation and scratch-arena wins from the threading win.
void BM_AllDetectionSetsReference(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const auto stuck = collapse_stuck_at_faults(lines);
  const auto bridges = enumerate_four_way_bridging(c);
  for (auto _ : state) {
    const FaultSimulator fsim(sim, lines);
    const auto stuck_sets = fsim.detection_sets(stuck);
    const auto bridge_sets = fsim.detection_sets(bridges);
    benchmark::DoNotOptimize(stuck_sets.size() + bridge_sets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stuck.size() + bridges.size()));
}
BENCHMARK(BM_AllDetectionSetsReference);

void BM_AllDetectionSetsBatched(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const auto stuck = collapse_stuck_at_faults(lines);
  const auto bridges = enumerate_four_way_bridging(c);
  const std::vector<LineId> sites = bridging_sites(lines, bridges);
  BatchFaultSimOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const BatchFaultSimulator fsim(sim, lines, options);
    const auto stuck_sets = fsim.detection_sets(stuck);
    const auto obs_rows = fsim.observability(sites);
    benchmark::DoNotOptimize(stuck_sets.size() + obs_rows.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stuck.size() + bridges.size()));
}
BENCHMARK(BM_AllDetectionSetsBatched)->Arg(1)->Arg(0);

// Arguments are {circuit, threads}: circuit 0 is bbara, 1 the
// bridging-heavy s1a (70k four-way bridges over 8192 vectors), 2 keyb and
// 3 dk16; threads is the worker-pool width, so /1 against /4 shows whether
// the build scales.
void BM_DetectionDbBuild(benchmark::State& state) {
  static const Circuit circuits[] = {
      bench_circuit(), fsm_benchmark_circuit("s1a"),
      fsm_benchmark_circuit("keyb"), fsm_benchmark_circuit("dk16")};
  const Circuit& c = circuits[static_cast<std::size_t>(state.range(0))];
  DetectionDbOptions options;
  options.num_threads = static_cast<unsigned>(state.range(1));
  state.SetLabel(c.name());
  for (auto _ : state) {
    const DetectionDb db = DetectionDb::build(c, options);
    benchmark::DoNotOptimize(db.targets().size());
  }
}
BENCHMARK(BM_DetectionDbBuild)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({3, 1})
    ->Args({3, 4});

// The worst-case sweep, reference flavour: serial, unpruned, over the
// all-dense database -- the pre-refactor behaviour BM_WorstCasePruned is
// measured against.
void BM_WorstCaseReference(benchmark::State& state) {
  const DetectionDb& db = bench_db_dense();
  for (auto _ : state) {
    WorstCaseResult worst;
    worst.nmin.reserve(db.untargeted().size());
    for (const DetectionSet& tg : db.untargeted_sets())
      worst.nmin.push_back(nmin_of(tg, db.target_sets()));
    benchmark::DoNotOptimize(worst.nmin.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.untargeted().size()));
  state.counters["db_bytes"] =
      static_cast<double>(db.set_memory_bytes());
}
BENCHMARK(BM_WorstCaseReference);

// The production sweep: the tiled pair-kernel engine with the N(f)-sorted
// tile prune over the adaptive database, batches sharded across the worker
// pool (argument = thread count, 0 = all hardware threads).  The label is
// the SIMD dispatch level the engine ran at; db_bytes vs dense_bytes
// exposes the storage win (factored T(g), adaptive T(f)) on this circuit.
void BM_WorstCasePruned(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  AnalysisOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  std::size_t distinct = 0;
  for (auto _ : state) {
    const WorstCaseResult worst = analyze_worst_case(db, options);
    benchmark::DoNotOptimize(worst.nmin.size());
    distinct = worst.distinct_sets;
  }
  state.SetLabel(simd::level_name(simd::active_level()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.untargeted().size()));
  state.counters["db_bytes"] = static_cast<double>(db.set_memory_bytes());
  state.counters["dense_bytes"] =
      static_cast<double>(db.dense_memory_bytes());
  state.counters["distinct"] = static_cast<double>(distinct);
}
BENCHMARK(BM_WorstCasePruned)->Arg(1)->Arg(0);

// The same sweep on the paper's heavy Table 3 circuits (2^13-vector
// universes, tens of thousands of bridging faults, nmin tails above 100):
// the workload the tiled engine targets.  Arguments are {circuit, threads}
// with circuit 0 = dvram, 1 = s1a (the largest machine of the suite).
void BM_WorstCasePrunedLarge(benchmark::State& state) {
  static const DetectionDb dbs[2] = {
      DetectionDb::build(fsm_benchmark_circuit("dvram")),
      DetectionDb::build(fsm_benchmark_circuit("s1a")),
  };
  const DetectionDb& db = dbs[state.range(0)];
  AnalysisOptions options;
  options.num_threads = static_cast<unsigned>(state.range(1));
  std::size_t distinct = 0;
  for (auto _ : state) {
    const WorstCaseResult worst = analyze_worst_case(db, options);
    benchmark::DoNotOptimize(worst.nmin.size());
    distinct = worst.distinct_sets;
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "dvram" : "s1a") + "/" +
                 simd::level_name(simd::active_level()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.untargeted().size()));
  state.counters["db_bytes"] = static_cast<double>(db.set_memory_bytes());
  state.counters["distinct"] = static_cast<double>(distinct);
}
BENCHMARK(BM_WorstCasePrunedLarge)->Args({0, 1})->Args({1, 1})->Args({1, 0});

// Section 4 end to end: partition a multi-block circuit into per-cone
// subcircuits and run the full build + worst-case analysis on every cone,
// cones sharded across the worker pool.
void BM_PartitionedWorstCase(benchmark::State& state) {
  const Circuit circuit = multi_adder_circuit(4);
  AnalysisOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto reports = partitioned_worst_case(circuit, 7, options);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_PartitionedWorstCase)->Arg(1)->Arg(0);

// The paper-table session path on keyb, a circuit whose structure-mode
// partition is the whole circuit: a fresh session runs worst_case() and
// then partitioned(), which answers the one cone from the session's memo
// instead of building a second database (argument = thread count).
void BM_SessionPartitioned(benchmark::State& state) {
  static const Circuit circuit = fsm_benchmark_circuit("keyb");
  PartitionOptions request;
  request.max_inputs = circuit.input_count();
  request.by_structure = true;
  SessionOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  std::size_t reused = 0;
  for (auto _ : state) {
    AnalysisSession session(circuit, options);
    benchmark::DoNotOptimize(session.worst_case().nmin.size());
    benchmark::DoNotOptimize(session.partitioned(request).size());
    reused = session.stats().partitioned_reused;
  }
  state.counters["reused"] = static_cast<double>(reused);
}
BENCHMARK(BM_SessionPartitioned)->Arg(1)->Arg(0);

// Procedure 1, sharded over its K sets: arguments are {K, worker threads}
// (1 = serial on the calling thread, 0 = all hardware).  Results are
// bit-identical at every width, so the thread column is pure wall-clock; the
// .../1 rows isolate the per-set worklist win over the classic
// n x targets x K sweep.
void BM_Procedure1Def1(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  std::vector<std::size_t> monitored(std::min<std::size_t>(32, db.untargeted().size()));
  std::iota(monitored.begin(), monitored.end(), std::size_t{0});
  Procedure1Config config;
  config.nmax = 10;
  config.num_sets = static_cast<std::size_t>(state.range(0));
  config.num_threads = static_cast<unsigned>(state.range(1));
  std::uint64_t tests_added = 0;
  for (auto _ : state) {
    const AverageCaseResult result = run_procedure1(db, monitored, config);
    tests_added = result.stats.tests_added;
    benchmark::DoNotOptimize(tests_added);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["tests_added"] = static_cast<double>(tests_added);
  state.SetLabel(std::string(simd::level_name(simd::active_level())) + "/bw" +
                 std::to_string(PairKernelEngine::kBatchWidth));
}
BENCHMARK(BM_Procedure1Def1)->Args({100, 1})->Args({100, 8});

void BM_Procedure1Def2(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  std::vector<std::size_t> monitored(std::min<std::size_t>(32, db.untargeted().size()));
  std::iota(monitored.begin(), monitored.end(), std::size_t{0});
  Procedure1Config config;
  config.nmax = 10;
  config.num_sets = static_cast<std::size_t>(state.range(0));
  config.num_threads = static_cast<unsigned>(state.range(1));
  config.definition = DetectionDefinition::kDissimilar;
  Def2OracleStats cache;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const AverageCaseResult result = run_procedure1(db, monitored, config);
    cache = result.def2_cache;
    queries = result.stats.distinct_queries;
    benchmark::DoNotOptimize(queries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["oracle_queries"] = static_cast<double>(queries);
  state.counters["word_passes"] = static_cast<double>(cache.word_passes);
  state.counters["lanes"] = static_cast<double>(cache.verdict_misses);
  state.SetLabel(std::string(simd::level_name(simd::active_level())) + "/bw" +
                 std::to_string(PairKernelEngine::kBatchWidth));
}
BENCHMARK(BM_Procedure1Def2)->Args({10, 1})->Args({10, 8});

// The Definition-2 lane kernel: one detect_lanes() pass deciding
// `range(0)` (t, s) pairs of one fault; items are pairs.
void BM_Def2Oracle(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const auto faults = collapse_stuck_at_faults(lines);
  const Def2Program program(lines, faults);
  Def2Oracle oracle(program);
  const std::uint64_t space = c.vector_space_size();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  // A fixed pool of pseudo-random pairs, walked one window per pass.
  constexpr std::size_t kPool = 4096;
  std::vector<std::uint64_t> ts(kPool + lanes), ss(kPool + lanes);
  for (std::size_t p = 0; p < ts.size(); ++p) {
    ts[p] = (p + 1) % space;
    ss[p] = ((p + 1) * 2654435761u) % space;
  }
  std::size_t pass = 0;
  for (auto _ : state) {
    const std::size_t first = (pass * lanes) % kPool;
    benchmark::DoNotOptimize(oracle.detect_lanes(
        pass % faults.size(), ts.data() + first, ss.data() + first, lanes));
    ++pass;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Def2Oracle)->Arg(1)->Arg(64);

void BM_PodemPerFault(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const Podem podem(lines);
  const auto faults = collapse_stuck_at_faults(lines);
  Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const PodemResult result = podem.generate(faults[i % faults.size()], rng);
    benchmark::DoNotOptimize(result.cube.has_value());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PodemPerFault);

void BM_NDetectionAtpg(benchmark::State& state) {
  const Circuit c = fsm_benchmark_circuit("bbtas");
  const LineModel lines(c);
  const auto faults = collapse_stuck_at_faults(lines);
  NDetectConfig config;
  config.n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const NDetectResult result = generate_ndetection_set(lines, faults, config);
    benchmark::DoNotOptimize(result.tests.size());
  }
}
BENCHMARK(BM_NDetectionAtpg)->Arg(1)->Arg(5)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
